"""Numpy micro-timings of sarsep's hot loops.

Runs each hot loop on a desk-scale workload and reports the median
wall time per call: echo accumulation (``kernels.accumulate_echoes``),
backprojection sampling (``kernels.backproject_block``) on one block of
the size ``imaging`` passes it, one motion-compensated image
(``imaging.image_points`` on a 167 x 167 grid around scene1's first
mover), and one singular-value-thresholding step of principal
component pursuit (``rpca._svd_threshold``) on a window of the shape
the reduced scene1 benchmark splits (87 pulses by 617 samples).

Usage::

    python3 benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import time

import numpy as np

from sarsep import imaging, kernels, rpca, scene
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

    t_numpy = median_time(run, repeats)
    print(f"accumulate_echoes  numpy   {t_numpy * 1e3:8.2f} ms")


def bench_backproject(repeats):
    work = backproject_workload(np.random.default_rng(1))
    args = (work["rows"], work["t0"], work["dt"], work["dtau"])
    t_numpy = median_time(lambda: kernels.backproject_block(*args), repeats)
    print(f"backproject_block  numpy   {t_numpy * 1e3:8.2f} ms")


def bench_image_points(repeats, extent=40.0, spacing=0.24):
    spec = preset_scene("scene1")
    mover = spec.moving_targets[0]
    trace = scene.simulate(spec.subset([mover]))
    grid = imaging.ImageGrid(
        center=mover.rho, extent_x=extent, extent_y=extent, spacing=spacing
    )
    points = grid.points()
    u_vec = mover.velocity
    t_numpy = median_time(lambda: imaging.image_points(trace, points, u_vec), repeats)
    ny, nx = grid.shape
    print(f"image_points {ny}x{nx} numpy   {t_numpy * 1e3:8.2f} ms")


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
    bench_backproject(args.repeats)
    bench_image_points(args.repeats)
    bench_svt(args.repeats)


if __name__ == "__main__":
    main()
