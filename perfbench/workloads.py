"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Each workload has three steps.  ``setup`` builds the inputs from the
seed (seed 0 means the unjittered scene); ``run`` is one timed pass and
calls sarsep only through module attributes, so the tracer's wrappers
see every call; ``score`` checks the outputs and computes quality
numbers outside the timed region.

The scene1 pipeline takes 78 s per pass on a 2-core machine, longer
than a benchmark run may last, so ``scene1-separate`` and
``mover-focus`` use scene1 reduced about ninefold: the same trajectory,
radar band and target layout, with positions scaled by 1/8, velocities
by 1/2, the middle 87 of the 117 pulses, fast time sampled at 2.5
samples per carrier cycle (above the real-signal Nyquist rate, and the
lowest rate at which the scans keep their baseband fast path) and a
20 m location search box.  Both movers and the windowed split, scan,
location and peel stages are all still exercised.

Jittered scenes are simulated on the fast-time gate sarsep designs for
the unjittered scene, so every seed hands the program arrays of the
same shape and the work per pass does not depend on the seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sarsep import annihil, imaging, motion, ranklab
from sarsep import io as sario
from sarsep import scene as sarscene
from sarsep.geom import C_LIGHT, Aperture, compose_velocity, decompose_velocity
from sarsep.presets import preset_scene

#: scene1 reduction used by the two scene1 workloads.
SCENE1_POSITION_SCALE = 1.0 / 8.0
SCENE1_VELOCITY_SCALE = 1.0 / 2.0
SCENE1_SAMPLES_PER_CYCLE = 2.5
SCENE1_PULSES = 87
LOCATE_EXTENT_M = 20.0

#: Seed jitter (seed 0 applies none).  Amplitude factors and velocity
#: factors are drawn uniformly per target or per component; offsets are
#: added to the x and y of the start position.  The ranges keep every
#: delay inside the unjittered scene's gate padding (6/bandwidth).
JITTER = {
    "clutter_amplitude_factor": (0.8, 1.2),
    "mover_offset_m": (-0.5, 0.5),
    "mover_velocity_factor": (0.95, 1.05),
    "annihil_target_offset_m": (-0.5, 0.5),
    "annihil_mover_speed_factor": (0.9, 1.1),
    "example2_amplitude_factor": (0.8, 1.2),
}

#: Acceptance 7's image grid for focus gain.
FOCUS_EXTENT_M = 40.0
FOCUS_SPACING_M = 0.24

#: Acceptance 8's sweeps.
RANK_SPEEDS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
RANK_OFFSETS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 25.0)
RANK_SLOPE_N = 1024
RANK_SLOPE_SPEEDS = np.arange(1.0, 9.0)

CROSS = np.array([0.0, 1.0, 0.0])


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    score: Callable


def _draw(rng, key, size=None):
    lo, hi = JITTER[key]
    return rng.uniform(lo, hi, size)


def _jitter_targets(targets, rng):
    out = []
    for tgt in targets:
        rho, vel, amp = tgt.rho.copy(), tgt.velocity.copy(), tgt.amplitude
        if rng is not None:
            if tgt.moving:
                rho[:2] += _draw(rng, "mover_offset_m", 2)
                vel[:2] *= _draw(rng, "mover_velocity_factor", 2)
            else:
                amp *= _draw(rng, "clutter_amplitude_factor")
        out.append(sarscene.Target(rho=rho, velocity=vel, amplitude=amp))
    return tuple(out)


def reduced_scene1(rng):
    """scene1 reduced as the module docstring states, then jittered."""
    base = preset_scene("scene1")
    radar = sarscene.Radar(
        nu0=base.radar.nu0,
        bandwidth=base.radar.bandwidth,
        dt=1.0 / (SCENE1_SAMPLES_PER_CYCLE * base.radar.nu0),
    )
    scaled = [
        sarscene.Target(
            rho=t.rho * SCENE1_POSITION_SCALE,
            velocity=t.velocity * SCENE1_VELOCITY_SCALE,
            amplitude=t.amplitude,
        )
        for t in base.targets
    ]
    return dataclasses.replace(
        base,
        aperture=Aperture(n=SCENE1_PULSES - 1, ds=base.aperture.ds),
        radar=radar,
        targets=_jitter_targets(scaled, rng),
    )


def correlation(a, b) -> float:
    """Normalized inner product of two trace arrays (acceptance 6 and 7)."""
    return abs(float(np.vdot(a.ravel(), b.ravel()))) / (
        np.linalg.norm(a) * np.linalg.norm(b)
    )


def _truth_motion(scene, target):
    u, u_perp = decompose_velocity(scene.frame, target.velocity)
    return u, u_perp, target.rho


# --- scene1-separate -------------------------------------------------------


@dataclass(frozen=True)
class SplitInputs:
    scene: object
    mixture: object
    stationary: object
    moving: object
    truth: tuple


def _gate(scene):
    """The fast-time axis sarsep designs for ``scene``."""
    return sarscene.simulate(scene).axis


def split_setup(rng, workdir: Path) -> SplitInputs:
    scene = reduced_scene1(rng)
    axis = _gate(reduced_scene1(None))
    stationary, moving = sarscene.simulate_split(scene, axis=axis)
    mixture = stationary.replace(data=stationary.data + moving.data)
    truth = tuple(
        sarscene.simulate(scene.subset([t]), axis=mixture.axis).data
        for t in scene.moving_targets
    )
    return SplitInputs(scene, mixture, stationary, moving, truth)


def split_run(inp: SplitInputs):
    return motion.separate_movers(
        inp.mixture, max_movers=2, extent=LOCATE_EXTENT_M
    )


def _match(scene, estimates):
    """Pair each true mover with the estimate closest in range speed."""
    pairs = []
    free = list(range(len(estimates)))
    for k, tgt in enumerate(scene.moving_targets):
        u_true = _truth_motion(scene, tgt)[0]
        if not free:
            break
        best = min(free, key=lambda i: abs(estimates[i].u - u_true))
        free.remove(best)
        pairs.append((k, best))
    return pairs


def split_score(inp: SplitInputs, out):
    checks = {
        "two_movers_found": len(out.estimates) == 2,
        "outputs_finite": all(
            np.all(np.isfinite(t.data))
            for t in (out.low, out.residual, *out.movers)
        ),
    }
    total = out.low.data + out.residual.data + sum(m.data for m in out.movers)
    gap = np.linalg.norm(inp.mixture.data - total) / np.linalg.norm(
        inp.mixture.data
    )
    # The solver stops each window at 1e-7 relative feasibility; three
    # splits (initial plus two peels) are stacked.
    checks["parts_sum_to_input"] = bool(gap <= 1e-6)
    leak = np.linalg.norm(
        inp.mixture.data - out.low.data - inp.moving.data
    ) ** 2 / np.linalg.norm(inp.stationary.data) ** 2
    quality = {"split_leak_db": 10.0 * np.log10(leak)}
    rows = []
    for k, i in _match(inp.scene, out.estimates):
        u, u_perp, rho = _truth_motion(inp.scene, inp.scene.moving_targets[k])
        est = out.estimates[i]
        rows.append(
            (
                correlation(out.movers[i].data, inp.truth[k]),
                abs(est.u - u),
                abs(est.u_perp - u_perp),
                float(np.linalg.norm(est.rho - rho)),
            )
        )
    if rows:
        corr, u_err, u_perp_err, rho_err = zip(*rows)
        quality.update(
            mover_corr_min=min(corr),
            u_err_max_mps=max(u_err),
            u_perp_err_max_mps=max(u_perp_err),
            rho_err_max_m=max(rho_err),
        )
    return checks, quality


# --- mover-focus -----------------------------------------------------------


@dataclass(frozen=True)
class FocusInputs:
    scene: object
    movers: tuple
    workdir: Path


def focus_setup(rng, workdir: Path) -> FocusInputs:
    scene = reduced_scene1(rng)
    axis = _gate(reduced_scene1(None))
    movers = tuple(
        sarscene.simulate(scene.subset([t]), axis=axis)
        for t in scene.moving_targets
    )
    return FocusInputs(scene, movers, workdir)


def focus_run(inp: FocusInputs):
    """``sarsep estimate-motion`` then ``sarsep image`` on each mover trace."""
    frame = inp.scene.frame
    results = []
    for k, trace in enumerate(inp.movers):
        path = sario.write_trace(inp.workdir / f"mover{k}.trc", trace)
        loaded = sario.read_trace(path)
        copy = sario.write_trace(inp.workdir / f"mover{k}.copy.trc", loaded)
        u_grid, values = motion.g_curve(loaded)
        peaks = motion.find_speed_peaks(u_grid, values)
        if not peaks:
            results.append(None)
            continue
        u = peaks[0][0]
        rho = motion.estimate_location(
            loaded, motion.trial_velocity(frame, u), extent=LOCATE_EXTENT_M
        )
        u_perp, _ = motion.estimate_cross_speed(loaded, rho, u)
        u_vec = compose_velocity(frame, u, u_perp)
        rho = motion.estimate_location(loaded, u_vec, extent=LOCATE_EXTENT_M)
        grid = imaging.ImageGrid(
            center=rho,
            extent_x=FOCUS_EXTENT_M,
            extent_y=FOCUS_EXTENT_M,
            spacing=FOCUS_SPACING_M,
        )
        focused = imaging.image_compensated(loaded, grid, u_vec)
        plain = imaging.image(loaded, grid)
        sario.write_pgm(inp.workdir / f"mover{k}.focused.pgm", focused.envelope)
        sario.write_pgm(inp.workdir / f"mover{k}.plain.pgm", plain.envelope)
        results.append((path, copy, u, u_perp, rho, focused, plain))
    return results


def _same_bytes(a: Path, b: Path) -> bool:
    """Payload and sidecar of two written traces are byte-identical."""
    return all(
        Path(f"{a}{suffix}").read_bytes() == Path(f"{b}{suffix}").read_bytes()
        for suffix in ("", ".json")
    )


def focus_score(inp: FocusInputs, out):
    checks = {}
    rows = []
    for k, result in enumerate(out):
        checks[f"mover{k}_speed_peak_found"] = result is not None
        if result is None:
            continue
        path, copy, u, u_perp, rho, focused, plain = result
        checks[f"mover{k}_trc_round_trip"] = _same_bytes(path, copy)
        checks[f"mover{k}_images_finite"] = bool(
            np.all(np.isfinite(focused.envelope))
            and np.all(np.isfinite(plain.envelope))
        )
        u_true, u_perp_true, rho_true = _truth_motion(
            inp.scene, inp.scene.moving_targets[k]
        )
        rows.append(
            (
                abs(u - u_true),
                abs(u_perp - u_perp_true),
                float(np.linalg.norm(rho - rho_true)),
                focused.peak_value() / plain.peak_value(),
            )
        )
    quality = {}
    if rows:
        u_err, u_perp_err, rho_err, gain = zip(*rows)
        quality = {
            "u_err_max_mps": max(u_err),
            "u_perp_err_max_mps": max(u_perp_err),
            "rho_err_max_m": max(rho_err),
            "focus_gain_min": min(gain),
        }
    return checks, quality


# --- annihil-rank ----------------------------------------------------------


@dataclass(frozen=True)
class AnnihilInputs:
    dense_stationary: object
    dense_mover: object
    dense_axes: tuple
    rho_t: np.ndarray
    example2: object
    example2_axis: object
    plan: object


def annihil_setup(rng, workdir: Path) -> AnnihilInputs:
    base = preset_scene("single")

    def dense(offset, speed):
        """Acceptance 3's dense-aperture scenes: (stationary, mover)."""
        rho_t = np.array([0.0, 5.0, 0.0]) + offset
        velocity = compose_velocity(base.frame, speed, 0.0)
        return rho_t, tuple(
            sarscene.SceneSpec(
                traj=base.traj,
                rho_o=base.rho_o,
                aperture=Aperture(n=1856, ds=0.015 / 16.0),
                radar=base.radar,
                targets=(sarscene.Target(rho=rho_t, velocity=v),),
            )
            for v in (np.zeros(3), velocity)
        )

    offset, speed = np.zeros(3), 1.0
    if rng is not None:
        offset[:2] = _draw(rng, "annihil_target_offset_m", 2)
        speed *= _draw(rng, "annihil_mover_speed_factor")
    rho_t, scenes = dense(offset, speed)
    ex2 = preset_scene("example2")
    ex2_axis = _gate(ex2)
    if rng is not None:
        factors = _draw(rng, "example2_amplitude_factor", len(ex2.targets))
        ex2 = ex2.subset(
            dataclasses.replace(t, amplitude=t.amplitude * f)
            for t, f in zip(ex2.targets, factors)
        )
    plan = annihil.AnnihilationPlan.for_points(
        [t.rho for t in ex2.stationary_targets]
    )
    axes = tuple(_gate(s) for s in dense(np.zeros(3), 1.0)[1])
    return AnnihilInputs(*scenes, axes, rho_t, ex2, ex2_axis, plan)


def annihil_run(inp: AnnihilInputs):
    """Acceptance 3's annihilation, a 30-stage plan, acceptance 8's ranks."""
    stationary = sarscene.simulate(inp.dense_stationary, axis=inp.dense_axes[0])
    mover = sarscene.simulate(inp.dense_mover, axis=inp.dense_axes[1])
    exact_plan = annihil.AnnihilationPlan(
        stages=(annihil.AnnihilationStage(rho_e=inp.rho_t),)
    )
    offset_plan = annihil.AnnihilationPlan(
        stages=(annihil.AnnihilationStage(rho_e=inp.rho_t + 2.5 * CROSS),)
    )
    exact = annihil.annihilate(stationary, exact_plan)
    offset_stationary = annihil.annihilate(stationary, offset_plan)
    offset_mover = annihil.annihilate(mover, offset_plan)
    example2 = sarscene.simulate(inp.example2, axis=inp.example2_axis)
    filtered = annihil.annihilate(example2, inp.plan)

    mover_rows = ranklab.rank_study("single-mover", RANK_SPEEDS)
    stationary_rows = ranklab.rank_study("single-stationary", RANK_OFFSETS)
    empirical = ranklab.rank_study("single-mover", [1.0], empirical=True)
    traj, rho_o, aperture = ranklab.default_rank_frame()
    radar = sarscene.Radar()
    wide = Aperture(n=RANK_SLOPE_N, ds=aperture.ds)
    fractions = [
        ranklab.numeric_rank(
            ranklab.theoretical_covariance(
                traj,
                rho_o,
                wide,
                radar,
                [sarscene.Target(rho=rho_o, velocity=np.array([u, 0.0, 0.0]))],
            )
        )
        / (RANK_SLOPE_N + 1)
        for u in RANK_SLOPE_SPEEDS
    ]
    return {
        "stationary": stationary,
        "mover": mover,
        "exact": exact,
        "offset_stationary": offset_stationary,
        "offset_mover": offset_mover,
        "filtered": filtered,
        "mover_ranks": [r["computed_rank"] for r in mover_rows],
        "stationary_ranks": [r["computed_rank"] for r in stationary_rows],
        "empirical_rank": empirical[0]["computed_rank"],
        "fractions": fractions,
        "aperture": aperture,
        "radar": radar,
    }


def _monotone(values) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))


def annihil_score(inp: AnnihilInputs, out):
    exact_db = annihil.energy_ratio_db(out["stationary"], out["exact"])
    margin_db = annihil.energy_ratio_db(
        out["mover"], out["offset_mover"]
    ) - annihil.energy_ratio_db(out["stationary"], out["offset_stationary"])
    radar, aperture = out["radar"], out["aperture"]
    slope_theory = (
        4.0 * radar.bandwidth * aperture.ds * np.sqrt(np.log(100.0))
        / (np.pi * C_LIGHT)
    )
    design = np.vstack([RANK_SLOPE_SPEEDS, np.ones_like(RANK_SLOPE_SPEEDS)]).T
    slope_fit = np.linalg.lstsq(design, np.array(out["fractions"]), rcond=None)[0][0]
    ratio = slope_fit / slope_theory
    model_at_1 = out["mover_ranks"][RANK_SPEEDS.index(1.0)]
    checks = {
        "outputs_finite": all(
            np.all(np.isfinite(out[key].data))
            for key in ("exact", "offset_stationary", "offset_mover", "filtered")
        ),
        "exact_reference_below_-60db": bool(exact_db <= -60.0),
        "offset_margin_above_20db": bool(margin_db >= 20.0),
        "mover_ranks_monotone": _monotone(out["mover_ranks"]),
        "stationary_ranks_monotone": _monotone(out["stationary_ranks"]),
        "empirical_rank_within_2": abs(out["empirical_rank"] - model_at_1) <= 2,
        "slope_ratio_within_25pct": bool(0.75 <= ratio <= 1.25),
    }
    quality = {
        "annihil_exact_db": exact_db,
        "annihil_margin_db": margin_db,
        "rank_slope_err": abs(ratio - 1.0),
    }
    return checks, quality


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scene1-separate", split_setup, split_run, split_score),
        Workload("mover-focus", focus_setup, focus_run, focus_score),
        Workload("annihil-rank", annihil_setup, annihil_run, annihil_score),
    )
}
