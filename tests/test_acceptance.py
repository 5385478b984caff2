"""Desk-scale acceptance checks, one verdict per criterion.

Each test computes its measurements first, records a PASS/FAIL line
through :func:`conftest.record_acceptance`, and only then asserts, so
a red criterion still reports its numbers in the terminal summary.
"""

import time

import numpy as np
import pytest
from conftest import compressed_trace, flat_scene, record_acceptance
from scipy.signal import hilbert

from sarsep.annihil import (
    AnnihilationPlan,
    AnnihilationStage,
    annihilate,
    energy_ratio_db,
    locate_stationary,
    predict_annihilation_factor,
    remove_stationary,
    tt_forward,
    tt_inverse,
)
from sarsep.geom import (
    Aperture,
    C_LIGHT,
    compose_velocity,
    decompose_velocity,
    make_frame,
    travel_time,
)
from sarsep.imaging import (
    ImageGrid,
    half_power_width,
    image,
    image_compensated,
    image_points,
    profile,
)
from sarsep.motion import find_speed_peaks, g_curve, separate_movers
from sarsep.presets import preset_scene
from sarsep.ranklab import (
    bandwidth_beta_product,
    build_structured,
    default_rank_frame,
    numeric_rank,
    rank_study,
    szego_saturation_speed,
    theoretical_covariance,
)
from sarsep.rpca import WindowLayout, pcp_solve, separate_windowed
from sarsep.scene import Radar, SceneSpec, Target, simulate, simulate_split
from sarsep.signal import range_expand

pytestmark = pytest.mark.filterwarnings(
    "ignore:.*outside the fast-time gate and contributed zero.*:RuntimeWarning",
)

CROSS = np.array([0.0, 1.0, 0.0])
RANGE = np.array([1.0, 0.0, 0.0])


def correlation(a, b):
    """Normalized inner product of two trace arrays."""
    return abs(float(np.vdot(a.ravel(), b.ravel()))) / (
        np.linalg.norm(a) * np.linalg.norm(b)
    )


def leakage_db(sparse_data, moving_data, stationary_data):
    """Energy in the sparse part that is not mover signal, vs. clutter."""
    err = np.linalg.norm(sparse_data - moving_data) ** 2
    return 10.0 * np.log10(err / np.linalg.norm(stationary_data) ** 2)


@pytest.fixture(scope="module")
def example_splits():
    """Ground-truth stationary/moving splits of the two bundled examples."""
    out = {}
    for name in ("example1", "example2"):
        scene = preset_scene(name)
        stationary, moving = simulate_split(scene)
        mixture = stationary.replace(data=stationary.data + moving.data)
        out[name] = (stationary, moving, mixture)
    return out


def test_criterion_1_point_response_widths(gotcha_scene, single_trace):
    frame = make_frame(gotcha_scene.traj, gotcha_scene.rho_o)
    radar = gotcha_scene.radar
    target = gotcha_scene.targets[0].rho
    off_r, env_r = profile(single_trace, target, frame.range_dir, 2.0, 0.005)
    off_c, env_c = profile(single_trace, target, frame.cross_dir, 5.0, 0.02)
    width_r = half_power_width(off_r, env_r)
    width_c = half_power_width(off_c, env_c)

    # Predicted -3 dB widths.  Range: the compressed pulse envelope
    # exp(-(B t)^2 / 2) is down 3 dB at |t| = sqrt(ln 2)/B, a slant width
    # of 2 sqrt(ln 2) c/(2B), stretched on the ground by 1/|b_m| along
    # the range direction.  Cross-range: a uniform aperture of chord a
    # at range L gives the sinc main lobe 0.886 lambda0 L/(2a).
    times = gotcha_scene.aperture.times
    chord = float(
        np.linalg.norm(
            gotcha_scene.traj.position(times[-1])
            - gotcha_scene.traj.position(times[0])
        )
    )
    wavelength = C_LIGHT / radar.nu0
    pred_r = (
        2.0 * np.sqrt(np.log(2.0)) * C_LIGHT / (2.0 * radar.bandwidth)
        / np.linalg.norm(frame.b_m)
    )
    pred_c = 0.886 * wavelength * frame.range_L / (2.0 * chord)
    scale_r = C_LIGHT / radar.bandwidth
    scale_c = wavelength * frame.range_L / chord

    ok_r = 0.8 * pred_r <= width_r <= 1.2 * pred_r
    ok_c = 0.8 * pred_c <= width_c <= 1.2 * pred_c
    record_acceptance(
        1,
        ok_r and ok_c,
        f"-3 dB widths: range {width_r:.4f} m (predicted {pred_r:.4f}, band "
        f"[{0.8 * pred_r:.3f}, {1.2 * pred_r:.3f}]; c/B = {scale_r:.3f}), "
        f"cross {width_c:.4f} m (predicted {pred_c:.4f}, band "
        f"[{0.8 * pred_c:.3f}, {1.2 * pred_c:.3f}]; lambda0 L/a = "
        f"{scale_c:.3f})",
    )
    assert ok_r, f"range width {width_r:.4f} m, predicted {pred_r:.4f} m"
    assert ok_c, f"cross width {width_c:.4f} m, predicted {pred_c:.4f} m"


def test_criterion_2_delay_locus_and_compression():
    scene = preset_scene("fig2")
    trace = simulate(scene)
    raw = range_expand(trace)
    dt = trace.axis.dt
    target = scene.targets[0].rho

    envelope = np.abs(hilbert(raw.data, axis=1))
    peak_t = raw.t_times[np.argmax(envelope, axis=1)]
    predicted = np.array(
        [travel_time(scene.traj, s, target) for s in scene.aperture.times]
    )
    locus_err = float(np.max(np.abs(peak_t - predicted)))

    envelope_c = np.abs(hilbert(trace.data, axis=1))
    peak_t_c = trace.t_times[np.argmax(envelope_c, axis=1)]
    excursion = float(peak_t_c.max() - peak_t_c.min())
    bound = 2.0 * 5.0 * 2.0 / C_LIGHT + 2.0 * dt

    ok_locus = locus_err <= dt
    ok_exc = excursion <= bound
    record_acceptance(
        2,
        ok_locus and ok_exc,
        f"raw locus err {locus_err:.3e} s (<= dt {dt:.3e}), compressed "
        f"excursion {excursion:.3e} s (<= {bound:.3e})",
    )
    assert ok_locus
    assert ok_exc


def test_criterion_3_annihilation_energy():
    base = preset_scene("single")
    dense = Aperture(n=1856, ds=0.015 / 16.0)
    rho_t = np.array([0.0, 5.0, 0.0])

    def dense_scene(target):
        return SceneSpec(
            traj=base.traj,
            rho_o=base.rho_o,
            aperture=dense,
            radar=base.radar,
            targets=(target,),
        )

    trace = simulate(dense_scene(Target(rho=rho_t)))
    exact = annihilate(
        trace, AnnihilationPlan(stages=(AnnihilationStage(rho_e=rho_t),))
    )
    db_exact = energy_ratio_db(trace, exact)

    plan_off = AnnihilationPlan(
        stages=(AnnihilationStage(rho_e=rho_t + 2.5 * CROSS),)
    )
    db_stat = energy_ratio_db(trace, annihilate(trace, plan_off))
    frame = make_frame(base.traj, base.rho_o)
    mover = Target(rho=rho_t, velocity=compose_velocity(frame, 1.0, 0.0))
    trace_mov = simulate(dense_scene(mover))
    db_mov = energy_ratio_db(trace_mov, annihilate(trace_mov, plan_off))
    margin = db_mov - db_stat

    ok_exact = db_exact <= -60.0
    ok_margin = margin >= 20.0
    record_acceptance(
        3,
        ok_exact and ok_margin,
        f"exact reference residual {db_exact:.2f} dB (<= -60); offset "
        f"reference: mover {db_mov:.2f} dB vs stationary {db_stat:.2f} dB, "
        f"margin {margin:.2f} dB (>= 20)",
    )
    assert ok_exact
    assert ok_margin


def test_criterion_4_annihilation_factor_formula():
    base = preset_scene("single")
    cross_offsets = (-10.0, -5.0, -2.5, -1.0, 1.0, 2.5, 5.0, 10.0)
    rel_errs = []
    pred_scale = {}
    for dy in cross_offsets:
        target = Target(rho=base.rho_o + dy * CROSS)
        report = predict_annihilation_factor(
            base.traj, base.aperture, target, base.rho_o
        )
        scale = float(np.max(np.abs(report.predicted)))
        pred_scale[abs(dy)] = scale
        rel_errs.append(float(np.max(np.abs(report.fd - report.predicted))) / scale)
    worst_rel = max(rel_errs)

    # Down-range offsets have an exactly zero leading factor; the
    # finite difference must stay below 5% of the same-size cross
    # offset's prediction.
    worst_zero = 0.0
    for dx in (-10.0, -5.0, 5.0, 10.0):
        target = Target(rho=base.rho_o + dx * RANGE)
        report = predict_annihilation_factor(
            base.traj, base.aperture, target, base.rho_o
        )
        assert np.all(report.predicted == 0.0)
        worst_zero = max(
            worst_zero, float(np.max(np.abs(report.fd))) / pred_scale[abs(dx)]
        )

    ok = worst_rel <= 0.05 and worst_zero <= 0.05
    record_acceptance(
        4,
        ok,
        f"leading-factor rel err {worst_rel:.2e} over cross offsets <= 10 m, "
        f"zero-prediction residual {worst_zero:.2e} of scale (both <= 0.05)",
    )
    assert worst_rel <= 0.05
    assert worst_zero <= 0.05


def test_criterion_5_pcp_exact_recovery():
    rows, cols, support, spike = 100, 400, 0.05, 5.0
    worst_low = worst_sparse = worst_feas = 0.0
    all_converged = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, 6))
        left = rng.normal(size=(rows, rank)) / np.sqrt(rows)
        right = rng.normal(size=(rank, cols)) / np.sqrt(cols)
        low = left @ right
        sparse = np.zeros((rows, cols))
        mask = rng.random((rows, cols)) < support
        sparse[mask] = spike * np.abs(low).max() * rng.choice([-1.0, 1.0], mask.sum())
        sol = pcp_solve(low + sparse)
        worst_low = max(
            worst_low, np.linalg.norm(sol.low - low) / np.linalg.norm(low)
        )
        worst_sparse = max(
            worst_sparse,
            np.linalg.norm(sol.sparse - sparse) / np.linalg.norm(sparse),
        )
        worst_feas = max(worst_feas, sol.feasibility)
        all_converged = all_converged and sol.converged
    ok = (
        worst_low <= 1.0e-5
        and worst_sparse <= 1.0e-5
        and worst_feas <= 1.0e-7
        and all_converged
    )
    record_acceptance(
        5,
        ok,
        f"20 instances (100x400, rank <= 5, 5% support): worst rel err "
        f"L {worst_low:.2e}, S {worst_sparse:.2e} (<= 1e-5), feasibility "
        f"{worst_feas:.2e} (<= 1e-7)",
    )
    assert worst_low <= 1.0e-5
    assert worst_sparse <= 1.0e-5
    assert worst_feas <= 1.0e-7
    assert all_converged


def test_criterion_6_windowed_separation(example_splits):
    stationary2, moving2, mixture2 = example_splits["example2"]
    whole = pcp_solve(mixture2.data)
    leak_whole = leakage_db(whole.sparse, moving2.data, stationary2.data)

    results = {}
    for name in ("example1", "example2"):
        stationary, moving, mixture = example_splits[name]
        removal = remove_stationary(mixture, locate_stationary(mixture))
        sep = separate_windowed(removal.rest)
        results[name] = (
            correlation(sep.sparse.data, moving.data),
            leakage_db(sep.sparse.data, moving.data, stationary.data),
        )
    corr1, leak1 = results["example1"]
    corr2, leak2 = results["example2"]

    ok_whole = leak_whole >= -10.0
    ok_windowed = all(
        c >= 0.95 and l <= -20.0 for c, l in results.values()
    )
    record_acceptance(
        6,
        ok_whole and ok_windowed,
        f"whole-matrix leakage {leak_whole:.2f} dB (>= -10, failure "
        f"reproduced); windowed example1 corr {corr1:.4f} leak {leak1:.2f} dB, "
        f"example2 corr {corr2:.4f} leak {leak2:.2f} dB (need corr >= 0.95, "
        f"leak <= -20)",
    )
    assert ok_whole, f"whole-matrix leakage {leak_whole:.2f} dB below -10"
    assert corr1 >= 0.95 and leak1 <= -20.0, f"example1 corr {corr1:.4f} leak {leak1:.2f}"
    assert corr2 >= 0.95 and leak2 <= -20.0, f"example2 corr {corr2:.4f} leak {leak2:.2f}"


def test_criterion_7_end_to_end_scene():
    started = time.perf_counter()
    scene = preset_scene("scene1")
    stationary, moving = simulate_split(scene)
    mixture = stationary.replace(data=stationary.data + moving.data)
    frame = scene.frame
    truth_traces = [
        simulate(scene.subset([t]), axis=mixture.axis).data
        for t in scene.moving_targets
    ]
    truth_motion = [
        (decompose_velocity(frame, np.asarray(t.velocity)), np.asarray(t.rho))
        for t in scene.moving_targets
    ]

    grid0, values0 = g_curve(mixture)
    unseparated_u = find_speed_peaks(grid0, values0)[0][0]

    result = separate_movers(mixture, max_movers=2)
    per_mover = []
    for (truth_speeds, truth_rho), truth_data, mover, est in zip(
        truth_motion, truth_traces, result.movers, result.estimates
    ):
        (u_true, u_perp_true) = truth_speeds
        corr = correlation(mover.data, truth_data)
        grid = ImageGrid(
            center=truth_rho, extent_x=40.0, extent_y=40.0, spacing=0.24
        )
        focused = image_compensated(mover, grid, est.u_vec)
        plain = image(mover, grid)
        ratio = focused.peak_value() / plain.peak_value()
        per_mover.append(
            {
                "corr": corr,
                "u_err": est.u - u_true,
                "u_perp_err": est.u_perp - u_perp_true,
                "rho_err": float(np.linalg.norm(est.rho - truth_rho)),
                "focus": ratio,
            }
        )
    elapsed = time.perf_counter() - started

    ok_unsep = abs(unseparated_u) <= 0.25
    ok_u = all(abs(m["u_err"]) <= 0.25 for m in per_mover)
    ok_perp = all(abs(m["u_perp_err"]) <= 0.5 for m in per_mover)
    ok_corr = all(m["corr"] >= 0.9 for m in per_mover)
    ok_focus = all(m["focus"] >= 5.0 for m in per_mover)
    ok_time = elapsed <= 600.0
    detail = ", ".join(
        f"mover{k + 1} corr {m['corr']:.4f} u err {m['u_err']:+.4f} "
        f"u_perp err {m['u_perp_err']:+.4f} rho err {m['rho_err']:.3f} m "
        f"focus {m['focus']:.1f}x"
        for k, m in enumerate(per_mover)
    )
    record_acceptance(
        7,
        ok_unsep and ok_u and ok_perp and ok_corr and ok_focus and ok_time,
        f"unseparated g peak {unseparated_u:+.3f} m/s; {detail}; "
        f"{elapsed:.1f} s (corr >= 0.9, u within 0.25, u_perp within 0.5, "
        f"focus >= 5x)",
    )
    assert len(per_mover) == 2
    assert ok_unsep
    assert ok_u
    assert ok_perp
    assert ok_focus
    assert ok_time
    assert ok_corr, f"mover correlations {[m['corr'] for m in per_mover]}"


def test_criterion_8_rank_theory():
    traj, rho_o, aperture = default_rank_frame()
    radar = Radar()

    # (a) numeric rank monotone in mover speed below saturation and in
    # stationary cross-range offset.
    speeds = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    assert max(speeds) < szego_saturation_speed(radar, aperture.ds)
    mover_rows = rank_study("single-mover", speeds)
    mover_ranks = [r["computed_rank"] for r in mover_rows]
    ok_mover = all(b >= a for a, b in zip(mover_ranks, mover_ranks[1:]))
    offsets = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 25.0]
    stat_rows = rank_study("single-stationary", offsets)
    stat_ranks = [r["computed_rank"] for r in stat_rows]
    ok_stat = all(b >= a for a, b in zip(stat_ranks, stat_ranks[1:]))
    empirical = rank_study("single-mover", [1.0], empirical=True)
    ok_emp = abs(empirical[0]["computed_rank"] - mover_ranks[2]) <= 2

    # (b) the rank-fraction slope against the asymptotic prediction.
    slope_theory = (
        4.0 * radar.bandwidth * aperture.ds * np.sqrt(np.log(100.0))
        / (np.pi * C_LIGHT)
    )
    ratios = {}
    test_speeds = np.arange(1.0, 9.0)
    for n in (116, 1024):
        ap = Aperture(n=n, ds=0.015)
        fracs = []
        for u in test_speeds:
            targets = [Target(rho=rho_o, velocity=np.array([u, 0.0, 0.0]))]
            cov = theoretical_covariance(traj, rho_o, ap, radar, targets)
            fracs.append(numeric_rank(cov) / (n + 1))
        design = np.vstack([test_speeds, np.ones_like(test_speeds)]).T
        slope_fit, _ = np.linalg.lstsq(design, np.array(fracs), rcond=None)[0]
        ratios[n] = slope_fit / slope_theory
    ok_slope = 0.5 <= ratios[116] <= 2.0 and 0.75 <= ratios[1024] <= 1.25

    # (c) the bandwidth-offset product of the wide two-target pair.
    product = bandwidth_beta_product(
        traj,
        rho_o,
        radar,
        Target(rho=np.array([5.0, 5.0, 0.0])),
        Target(rho=np.array([-5.0, 0.01, 0.0])),
    )
    ok_product = f"{product:.3g}" == f"{41.47:.3g}"

    # (d) with a large bandwidth-offset product the slanted-Hankel part
    # is negligible and rank is set by the Toeplitz part alone.
    parts = build_structured(
        traj,
        rho_o,
        aperture,
        radar,
        Target(rho=np.array([5.0, 5.0, 0.0])),
        Target(rho=np.array([-5.0, -10.0, 0.0])),
    )
    pair_product = radar.bandwidth * abs(parts["beta_12"])
    rank_diff = abs(numeric_rank(parts["total"]) - numeric_rank(parts["toeplitz"]))
    ok_pair = pair_product > 10.0 and rank_diff <= 2

    ok = ok_mover and ok_stat and ok_emp and ok_slope and ok_product and ok_pair
    record_acceptance(
        8,
        ok,
        f"mover ranks {mover_ranks} and stationary ranks {stat_ranks} "
        f"monotone; empirical rank {empirical[0]['computed_rank']} vs model "
        f"{mover_ranks[2]}; slope ratio n=116 {ratios[116]:.4f} (factor 2), "
        f"n=1024 {ratios[1024]:.4f} (25%); B|beta| {product:.4f} -> 3 s.f. "
        f"{product:.3g}; separated pair B|beta| {pair_product:.1f}, rank "
        f"diff {rank_diff} (<= 2)",
    )
    assert ok_mover, f"mover ranks not monotone: {mover_ranks}"
    assert ok_stat, f"stationary ranks not monotone: {stat_ranks}"
    assert ok_emp
    assert ok_slope, f"slope ratios {ratios}"
    assert ok_product, f"B|beta| {product:.6f} does not round to 41.5"
    assert ok_pair


def test_criterion_9_property_battery():
    # Travel-time transform round trip.
    worst_rt = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        rho_t = np.append(rng.uniform(-3.0, 3.0, 2), 0.0)
        rho_e = np.append(rng.uniform(-3.0, 3.0, 2), 0.0)
        u_vec = np.append(rng.uniform(-1.0, 1.0, 2), 0.0)
        trace = simulate(flat_scene([rho_t]))
        back = tt_inverse(tt_forward(trace, rho_e, u_vec), rho_e, u_vec)
        err = np.max(np.abs(back.data - trace.data)) / np.max(np.abs(trace.data))
        worst_rt = max(worst_rt, err)

    # Linearity of the annihilation filter and of backprojection, and
    # the zero-velocity compensation identity, on randomized scenes.
    worst_annihil = worst_image = 0.0
    identity_ok = True
    for seed in range(3):
        rng = np.random.default_rng(200 + seed)
        pa = np.append(rng.uniform(-2.0, 2.0, 2), 0.0)
        pb = np.append(rng.uniform(-2.0, 2.0, 2), 0.0)
        amp_a, amp_b = rng.uniform(0.5, 2.0, 2)
        both = simulate(
            flat_scene(
                [Target(rho=pa, amplitude=amp_a), Target(rho=pb, amplitude=amp_b)]
            )
        )
        part_a = simulate(flat_scene([Target(rho=pa, amplitude=amp_a)]), axis=both.axis)
        part_b = simulate(flat_scene([Target(rho=pb, amplitude=amp_b)]), axis=both.axis)
        plan = AnnihilationPlan(
            stages=(AnnihilationStage(rho_e=np.append(rng.uniform(-2, 2, 2), 0.0)),)
        )
        out_sum = annihilate(both, plan)
        out_parts = annihilate(part_a, plan).data + annihilate(part_b, plan).data
        scale = np.max(np.abs(out_sum.data))
        worst_annihil = max(
            worst_annihil, np.max(np.abs(out_sum.data - out_parts)) / scale
        )
        points = np.column_stack(
            [rng.uniform(-3, 3, 40), rng.uniform(-3, 3, 40), np.zeros(40)]
        )
        values_a, _ = image_points(part_a, points)
        values_b, _ = image_points(part_b, points)
        values_sum, _ = image_points(both, points)
        worst_image = max(
            worst_image,
            np.max(np.abs(values_sum - values_a - values_b))
            / np.max(np.abs(values_sum)),
        )
        grid = ImageGrid(center=np.zeros(3), extent_x=6.0, extent_y=6.0, spacing=0.5)
        identity_ok = identity_ok and np.array_equal(
            image(both, grid).envelope,
            image_compensated(both, grid, np.zeros(3)).envelope,
        )

    # Windowed low-rank/sparse feasibility after overlap concatenation.
    worst_feas = 0.0
    for seed in range(3):
        rng = np.random.default_rng(400 + seed)
        rows, cols = 21, 127
        background = np.outer(
            1.0 + 0.1 * np.cos(np.linspace(0.0, 3.0, rows)),
            np.exp(-0.5 * ((np.arange(cols) - 60) / 12.0) ** 2),
        )
        spikes = np.zeros((rows, cols))
        for row in range(rows):
            spikes[row, rng.integers(0, cols)] = rng.choice([-3.0, 3.0])
        total = background + spikes
        sep = separate_windowed(
            compressed_trace(total),
            layout=WindowLayout(length=48, overlap=8),
        )
        feas = np.linalg.norm(sep.low.data + sep.sparse.data - total) / np.linalg.norm(
            total
        )
        worst_feas = max(worst_feas, feas, sep.feasibility)

    ok = (
        worst_rt <= 1.0e-10
        and worst_annihil <= 1.0e-9
        and worst_image <= 1.0e-9
        and identity_ok
        and worst_feas <= 1.0e-7
    )
    record_acceptance(
        9,
        ok,
        f"transform round trip {worst_rt:.1e} (<= 1e-10); linearity: "
        f"annihilate {worst_annihil:.1e}, image {worst_image:.1e} (<= 1e-9); "
        f"zero-velocity identity {identity_ok}; windowed feasibility "
        f"{worst_feas:.1e} (<= 1e-7)",
    )
    assert worst_rt <= 1.0e-10
    assert worst_annihil <= 1.0e-9
    assert worst_image <= 1.0e-9
    assert identity_ok
    assert worst_feas <= 1.0e-7
