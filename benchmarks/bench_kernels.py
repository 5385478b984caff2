"""Numpy micro-timings of sarsep's hot loops.

Runs each hot loop on a desk-scale workload and reports the median
wall time per call: echo accumulation (``kernels.accumulate_echoes``,
on ``kernels._WORKERS`` threads and on one), one model covariance of
acceptance 8(b)'s single mover (``ranklab.theoretical_covariance``,
1025 x 1025, a 2 m/s range mover in the rank studies' frame) and the
numeric rank of that covariance
(``ranklab.numeric_rank``, solved as two half-order blocks because the
matrix is symmetric Toeplitz), backprojection sampling
(``kernels.backproject_block``) on one block of the size ``imaging``
passes it, one motion-compensated image
(``imaging.image_points`` on a 167 x 167 grid around scene1's first
mover), one range-speed scan (``motion.g_curve`` on scene1 reduced as
perfbench reduces it, 87 pulses by 2025 samples) and one cross-speed
scan on the same trace (``motion.g_perp_curve`` through the reference
point at the strongest g(u) peak's range speed), then the pipeline's
coarse-to-fine searches of the same two curves (``motion._detect``, the
detection's search, and ``motion.estimate_cross_speed``), each on
``kernels._WORKERS`` threads and on one;
one stationary-echo removal (``annihil.remove_stationary`` on the same
reduced scene1, at the points ``annihil.locate_stationary`` finds in
perfbench's 20 m box), two annihilation filters (``annihil.annihilate``:
example2's 30-stage plan, one stage per stationary point, and
acceptance 3's 1857-pulse dense-aperture mover trace at the stage 2.5 m
off the target in cross-range), each on ``kernels._WORKERS`` threads and
on one, one peel of the first mover
(``motion._peel``: straighten on a gate widened by as much as the
window would read past its edges, so it never reads around the circle,
split one 617-sample window, take the mover back; on what that removal
leaves of the reduced scene1, at the pipeline's first-round estimate,
where the window stays inside the gate) and one
singular-value-thresholding step of principal component pursuit
(``rpca._svd_threshold``) on a window of the shape the peel splits (87
pulses by 617 samples).

Usage::

    python3 benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import dataclasses
import time
import warnings

import numpy as np

from sarsep import annihil, geom, imaging, kernels, motion, ranklab, rpca, scene
from sarsep.geom import Aperture
from sarsep.presets import preset_scene


def median_time(func, repeats):
    """Median wall time of ``func()`` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        func()
        times.append(time.perf_counter() - started)
    return float(np.median(times))


def echo_workload(rng, n_rows=117, n_t=8192, n_targets=30):
    """Inputs resembling a desk-scale multi-target simulation."""
    dt = 2.0833e-11
    t0 = 0.0
    tau = rng.uniform(0.15, 0.85, size=(n_rows, n_targets)) * (n_t * dt)
    amps = rng.uniform(0.5, 2.0, size=n_targets)
    half_support = 8.0 / 622.0e6
    return {
        "tau": tau,
        "t0": t0,
        "dt": dt,
        "nu0": 9.6e9,
        "bandwidth": 622.0e6,
        "amps": amps,
        "half_support": half_support,
        "shape": (n_rows, n_t),
    }


def bench_covariance(repeats, n=1024, speed=2.0):
    traj, rho_o, aperture = ranklab.default_rank_frame()
    wide = Aperture(n=n, ds=aperture.ds)
    mover = [scene.Target(rho=rho_o, velocity=np.array([speed, 0.0, 0.0]))]
    radar = scene.Radar()
    t_numpy = median_time(
        lambda: ranklab.theoretical_covariance(traj, rho_o, wide, radar, mover),
        repeats,
    )
    print(f"theoretical_covariance {n + 1}x{n + 1}  numpy   {t_numpy * 1e3:8.2f} ms")
    matrix = ranklab.theoretical_covariance(traj, rho_o, wide, radar, mover)
    t_numpy = median_time(lambda: ranklab.numeric_rank(matrix), repeats)
    print(f"numeric_rank {n + 1}x{n + 1}  numpy   {t_numpy * 1e3:8.2f} ms")


def backproject_workload(rng, n_rows=87, n_t=2025, upsample=4):
    """One backprojection block on rows the size of a reduced scene1 trace.

    The delays are uniform over a band twice as wide as the gate and
    centered on it, so about half of the samples fall outside it.
    """
    dt = 2.0833e-11 / upsample
    width = n_t * upsample
    rows = rng.standard_normal((n_rows, width)) + 1j * rng.standard_normal(
        (n_rows, width)
    )
    n_pix = imaging._BLOCK
    dtau = rng.uniform(-0.5, 1.5, size=(n_rows, n_pix)) * (width * dt)
    return {"rows": rows, "t0": 0.0, "dt": dt, "dtau": dtau}


def bench_echoes(repeats):
    work = echo_workload(np.random.default_rng(0))
    out = np.zeros(work["shape"])

    def run():
        out.fill(0.0)
        kernels.accumulate_echoes(
            out,
            work["tau"],
            work["t0"],
            work["dt"],
            work["nu0"],
            work["bandwidth"],
            work["amps"],
            work["half_support"],
        )

    n_rows, n_t = work["shape"]
    for workers, t_numpy in pooled_and_alone(run, repeats):
        print(
            f"accumulate_echoes {n_rows}x{n_t}, {workers} worker(s)"
            f"   numpy   {t_numpy * 1e3:8.2f} ms"
        )


def bench_backproject(repeats):
    work = backproject_workload(np.random.default_rng(1))
    args = (work["rows"], work["t0"], work["dt"], work["dtau"])
    t_numpy = median_time(lambda: kernels.backproject_block(*args), repeats)
    print(f"backproject_block  numpy   {t_numpy * 1e3:8.2f} ms")


def pooled_and_alone(func, repeats):
    """Median times of ``func()`` on ``kernels._WORKERS`` threads and on
    one, as (workers, seconds) pairs."""
    pooled = kernels._WORKERS
    times = []
    for workers in (pooled, 1):
        kernels._WORKERS = workers
        try:
            times.append((workers, median_time(func, repeats)))
        finally:
            kernels._WORKERS = pooled
    return times


def bench_image_points(repeats, extent=40.0, spacing=0.24):
    spec = preset_scene("scene1")
    mover = spec.moving_targets[0]
    trace = scene.simulate(spec.subset([mover]))
    grid = imaging.ImageGrid(
        center=mover.rho, extent_x=extent, extent_y=extent, spacing=spacing
    )
    points = grid.points()
    u_vec = mover.velocity
    ny, nx = grid.shape
    for workers, t_numpy in pooled_and_alone(
        lambda: imaging.image_points(trace, points, u_vec), repeats
    ):
        print(
            f"image_points {ny}x{nx}, {workers} worker(s)"
            f"   numpy   {t_numpy * 1e3:8.2f} ms"
        )


def reduced_scene1_trace():
    """scene1 reduced about ninefold, as perfbench's scene1 workloads
    reduce it: positions scaled by 1/8, velocities by 1/2, the middle
    87 pulses and 2.5 fast-time samples per carrier cycle."""
    spec = preset_scene("scene1")
    reduced = dataclasses.replace(
        spec,
        aperture=Aperture(n=86, ds=spec.aperture.ds),
        radar=dataclasses.replace(spec.radar, dt=1.0 / (2.5 * spec.radar.nu0)),
        targets=tuple(
            dataclasses.replace(t, rho=t.rho / 8.0, velocity=t.velocity / 2.0)
            for t in spec.targets
        ),
    )
    return scene.simulate(reduced)


def bench_scan(repeats):
    trace = reduced_scene1_trace()
    shape = f"{trace.n + 1}x{trace.m + 1}"
    # The cross-speed scan at the range speed of the strongest g(u) peak,
    # through the reference point.
    u = motion.find_speed_peaks(*motion.g_curve(trace))[0][0]
    scans = {
        "g_curve": lambda: motion.g_curve(trace),
        "g_perp_curve": lambda: motion.g_perp_curve(trace, trace.rho_o, u),
        # The pipeline's coarse-to-fine searches of the same curves: the
        # detection's search for the g(u) peak and the cross-speed estimate.
        "g search": lambda: motion._detect(trace)[2],
        "g_perp search": lambda: motion.estimate_cross_speed(trace, trace.rho_o, u)[1],
    }
    for name, scan in scans.items():
        trials = scan()[0].size
        for workers, t_numpy in pooled_and_alone(scan, repeats):
            print(
                f"{name} {shape} {trials} trials, {workers} worker(s)"
                f"   numpy   {t_numpy * 1e3:8.2f} ms"
            )


def bench_remove_stationary(repeats, extent=20.0):
    trace = reduced_scene1_trace()
    points = annihil.locate_stationary(trace, extent=extent)
    t_numpy = median_time(lambda: annihil.remove_stationary(trace, points), repeats)
    shape = f"{trace.n + 1}x{trace.m + 1}"
    print(
        f"remove_stationary {shape} {len(points)} points"
        f"   numpy   {t_numpy * 1e3:8.2f} ms"
    )


def annihilation_workloads():
    """(label, trace, plan) of example2's stationary-point plan and of
    acceptance 3's dense-aperture mover at the 2.5 m cross-range offset
    stage."""
    example2 = preset_scene("example2")
    plan = annihil.AnnihilationPlan.for_points(
        [t.rho for t in example2.stationary_targets]
    )
    yield "example2", scene.simulate(example2), plan
    base = preset_scene("single")
    rho_t = np.array([0.0, 5.0, 0.0])
    mover = scene.Target(
        rho=rho_t, velocity=geom.compose_velocity(base.frame, 1.0, 0.0)
    )
    dense = dataclasses.replace(
        base, aperture=Aperture(n=1856, ds=0.015 / 16.0), targets=(mover,)
    )
    offset = rho_t + 2.5 * np.array([0.0, 1.0, 0.0])
    plan = annihil.AnnihilationPlan(stages=(annihil.AnnihilationStage(rho_e=offset),))
    yield "dense mover", scene.simulate(dense), plan


def bench_annihilate(repeats):
    for label, trace, plan in annihilation_workloads():
        shape = f"{trace.n + 1}x{trace.m + 1}"
        stages = len(plan.stages)
        for workers, t_numpy in pooled_and_alone(
            lambda: annihil.annihilate(trace, plan), repeats
        ):
            print(
                f"annihilate {label} {shape} {stages} stage(s), {workers} worker(s)"
                f"   numpy   {t_numpy * 1e3:8.2f} ms"
            )


def bench_peel(repeats, extent=20.0):
    trace = reduced_scene1_trace()
    points = annihil.locate_stationary(trace, extent=extent)
    rest = annihil.remove_stationary(trace, points).rest
    u, score = motion.find_speed_peaks(*motion.g_curve(rest))[0]
    with warnings.catch_warnings():
        # Its location images sample outside the gate, as the pipeline's do.
        warnings.filterwarnings("ignore", ".*outside the fast-time gate", RuntimeWarning)
        scan, _ = motion.estimate_motion(rest, u, score, extent=extent)
    t_numpy = median_time(lambda: motion._peel(rest, scan), repeats)
    _, split, _ = motion._peel(rest, scan)
    ((a, b),) = [w["columns"] for w in split.diagnostics]
    shape = f"{trace.n + 1}x{trace.m + 1}"
    print(f"peel {shape} window {b - a}   numpy   {t_numpy * 1e3:8.2f} ms")


def bench_svt(repeats, shape=(87, 617)):
    window = np.random.default_rng(2).standard_normal(shape)
    # Keeps about a tenth of the singular values.
    threshold = float(np.quantile(np.linalg.svd(window, compute_uv=False), 0.9))
    t_numpy = median_time(lambda: rpca._svd_threshold(window, threshold), repeats)
    print(f"svt {shape[0]}x{shape[1]}         numpy   {t_numpy * 1e3:8.2f} ms")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed calls per kernel (median)"
    )
    args = parser.parse_args()
    bench_echoes(args.repeats)
    bench_covariance(args.repeats)
    bench_backproject(args.repeats)
    bench_image_points(args.repeats)
    bench_scan(args.repeats)
    bench_remove_stationary(args.repeats)
    bench_annihilate(args.repeats)
    bench_peel(args.repeats)
    bench_svt(args.repeats)


if __name__ == "__main__":
    main()
