"""Hot loops: echo accumulation and backprojection sampling, and the
chunked parallel runs of the scans and images.

Both kernels are vectorized numpy.  ``benchmarks/bench_kernels.py``
times them on desk-scale inputs.

``_in_chunks`` runs the speed scans' trial velocities and the
backprojection images' pixel blocks in contiguous chunks, one per CPU
of the process's affinity mask, on at most ``_MAX_WORKERS`` threads.
Each call starts its own threads and joins them before it returns.
numpy releases the GIL inside its FFTs and array loops, so the chunks
run in parallel.  Each chunk writes only its own outputs, so results
do not depend on the number of CPUs.
"""

from __future__ import annotations

import os

import numpy as np

# There is no numba path; the constant stays because the environment
# record in perfbench/run.py reads it.
HAS_NUMBA = False

__all__ = ["accumulate_echoes", "backproject_block"]

#: Most threads a chunked call uses.  Each thread holds one image block
#: or one scan batch at a time, so the cap bounds the working set
#: however many CPUs there are: four 256-point blocks hold as many
#: samples as one thread's 1024-point block.
_MAX_WORKERS = 4

#: Threads that run a chunked call, the caller included: one per CPU the
#: process may run on, up to ``_MAX_WORKERS``.
if hasattr(os, "sched_getaffinity"):
    _WORKERS = min(len(os.sched_getaffinity(0)), _MAX_WORKERS)
else:
    _WORKERS = min(os.cpu_count() or 1, _MAX_WORKERS)


def _in_chunks(part, count: int) -> list:
    """``[part(a, b), ...]`` over one contiguous chunk [a, b) of
    range(count) per worker, in chunk order.

    The calling thread runs the first chunk and a pool opened for this
    call runs the others; with one worker, ``part(0, count)`` runs in
    the calling thread alone.  The pool joins every chunk before the
    call returns, so no thread outlives it; then the first failed
    chunk's exception is raised.
    """
    chunks = max(1, min(_WORKERS, count))
    if chunks == 1:
        return [part(0, count)]
    from concurrent.futures import ThreadPoolExecutor

    bounds = [count * k // chunks for k in range(chunks + 1)]
    spans = list(zip(bounds[:-1], bounds[1:]))
    with ThreadPoolExecutor(chunks - 1, thread_name_prefix="sarsep") as pool:
        futures = [pool.submit(part, a, b) for a, b in spans[1:]]
        first = part(*spans[0])
    return [first] + [future.result() for future in futures]


def accumulate_echoes(out, tau, t0, dt, nu0, bandwidth, amps, half_support):
    """Add one Gaussian-carrier echo per (row, target) pair into ``out``.

    out[j, i] += amps[k] * cos(2 pi nu0 (t_i - tau[j, k]))
                 * exp(-(bandwidth (t_i - tau[j, k]))^2 / 2)
    restricted to |t_i - tau[j, k]| <= half_support, with t_i = t0 + i dt.
    """
    omega0 = 2.0 * np.pi * nu0
    n_rows, n_t = out.shape
    n_targets = tau.shape[1]
    for j in range(n_rows):
        for k in range(n_targets):
            tjk = tau[j, k]
            i_lo = max(int(np.ceil((tjk - half_support - t0) / dt)), 0)
            i_hi = min(int(np.floor((tjk + half_support - t0) / dt)), n_t - 1)
            if i_hi < i_lo:
                continue
            td = t0 + np.arange(i_lo, i_hi + 1) * dt - tjk
            out[j, i_lo : i_hi + 1] += (
                amps[k] * np.cos(omega0 * td) * np.exp(-0.5 * (bandwidth * td) ** 2)
            )
    return out


def backproject_block(rows, t0, dt, dtau):
    """Sum cubic-interpolated samples of complex rows at per-pixel delays.

    Only the in-gate (row, pixel) pairs are sampled: ``np.nonzero``
    compacts them in row-major order, the four-tap cubic weights and
    the four gathers from the flattened rows run on those pairs alone,
    and ``np.bincount`` sums them per pixel, real and imaginary parts
    separately.  Each pixel's samples are added in row order, and
    out-of-gate pairs add nothing.

    Parameters
    ----------
    rows : complex ndarray, shape (n_rows, M)
        Upsampled analytic traces.
    t0, dt : float
        Fast-time origin and step of the upsampled grid.
    dtau : ndarray, shape (n_rows, n_pix)
        Delay at which to sample each row for each pixel.

    Returns
    -------
    acc : complex ndarray, shape (n_pix,)
        Per-pixel sum over rows of the interpolated samples.
    missed : int ndarray, shape (n_pix,)
        Number of rows per pixel whose sample fell outside the grid,
        that is whose base index is below 1 or above M - 3.
    """
    n_rows, n_pix = dtau.shape
    width = rows.shape[1]
    x = (dtau - t0) / dt
    base = np.floor(x)
    row, pix = np.nonzero((base >= 1.0) & (base <= width - 3))
    x = x[row, pix]
    base = base[row, pix]
    frac = x - base
    start = row * width + base.astype(np.int64)
    flat = rows.reshape(-1)
    vals = (-frac * (frac - 1.0) * (frac - 2.0) / 6.0) * flat.take(start - 1)
    vals += ((frac + 1.0) * (frac - 1.0) * (frac - 2.0) / 2.0) * flat.take(start)
    vals += (-(frac + 1.0) * frac * (frac - 2.0) / 2.0) * flat.take(start + 1)
    vals += ((frac + 1.0) * frac * (frac - 1.0) / 6.0) * flat.take(start + 2)
    acc = np.empty(n_pix, dtype=complex)
    acc.real = np.bincount(pix, weights=vals.real, minlength=n_pix)
    acc.imag = np.bincount(pix, weights=vals.imag, minlength=n_pix)
    return acc, n_rows - np.bincount(pix, minlength=n_pix)
