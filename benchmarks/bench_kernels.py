"""Time the compiled kernels against their numpy fallbacks.

Runs each hot loop on a desk-scale workload and reports the median
wall time per call plus the speedup of the compiled path.  The numpy
fallback is always available; the numba path is skipped when numba is
missing or disabled through ``SARSEP_NO_NUMBA=1``.  The ``svt`` line
times one singular-value-thresholding step of principal component
pursuit (``rpca._svd_threshold``, numpy only) on a window of the shape
the reduced scene1 benchmark splits (87 pulses by 617 samples).

Usage::

    python3 benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import time

import numpy as np

from sarsep import kernels, rpca


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
        "omega0": 2.0 * np.pi * 9.6e9,
        "bandwidth": 622.0e6,
        "amps": amps,
        "half_support": half_support,
        "shape": (n_rows, n_t),
    }


def backproject_workload(rng, n_rows=117, n_t=8192, n_pix=20000, upsample=4):
    """Inputs resembling one backprojection block of a desk-scale image."""
    dt = 2.0833e-11 / upsample
    rows = (
        rng.standard_normal((n_rows, n_t * upsample))
        + 1j * rng.standard_normal((n_rows, n_t * upsample))
    )
    dtau = rng.uniform(0.1, 0.9, size=(n_rows, n_pix)) * (n_t * upsample * dt)
    return {"rows": rows, "t0": 0.0, "dt": dt, "dtau": dtau}


def bench_echoes(repeats):
    work = echo_workload(np.random.default_rng(0))
    args = (
        work["tau"],
        work["t0"],
        work["dt"],
        work["omega0"],
        work["bandwidth"],
        work["amps"],
        work["half_support"],
    )

    out_numpy = np.zeros(work["shape"])
    out_numba = np.zeros(work["shape"])

    def run_numpy():
        out_numpy.fill(0.0)
        kernels.accumulate_echoes_numpy(out_numpy, *args)

    def run_numba():
        out_numba.fill(0.0)
        kernels._accumulate_numba(out_numba, *args)

    t_numpy = median_time(run_numpy, repeats)
    print(f"accumulate_echoes  numpy   {t_numpy * 1e3:8.2f} ms")

    if not kernels.HAS_NUMBA:
        print("accumulate_echoes  numba   skipped (not available)")
        return
    run_numba()  # warm the JIT cache
    t_numba = median_time(run_numba, repeats)
    run_numpy()
    run_numba()
    err = np.max(np.abs(out_numba - out_numpy)) / np.max(np.abs(out_numpy))
    print(
        f"accumulate_echoes  numba   {t_numba * 1e3:8.2f} ms   "
        f"speedup {t_numpy / t_numba:5.1f}x   rel diff {err:.1e}"
    )


def bench_backproject(repeats):
    work = backproject_workload(np.random.default_rng(1))
    args = (work["rows"], work["t0"], work["dt"], work["dtau"])

    t_numpy = median_time(lambda: kernels.backproject_block_numpy(*args), repeats)
    print(f"backproject_block  numpy   {t_numpy * 1e3:8.2f} ms")

    if not kernels.HAS_NUMBA:
        print("backproject_block  numba   skipped (not available)")
        return
    kernels._backproject_numba(*args)  # warm the JIT cache
    t_numba = median_time(lambda: kernels._backproject_numba(*args), repeats)
    acc_numpy, miss_numpy = kernels.backproject_block_numpy(*args)
    acc_numba, miss_numba = kernels._backproject_numba(*args)
    err = np.max(np.abs(acc_numba - acc_numpy)) / np.max(np.abs(acc_numpy))
    assert np.array_equal(miss_numpy, miss_numba)
    print(
        f"backproject_block  numba   {t_numba * 1e3:8.2f} ms   "
        f"speedup {t_numpy / t_numba:5.1f}x   rel diff {err:.1e}"
    )


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
    mode = "numba" if kernels.HAS_NUMBA else "numpy only (SARSEP_NO_NUMBA or no numba)"
    print(f"kernel mode: {mode}")
    bench_echoes(args.repeats)
    bench_backproject(args.repeats)
    bench_svt(args.repeats)


if __name__ == "__main__":
    main()
