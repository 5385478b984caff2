"""Hot loops: echo accumulation and backprojection sampling.

Both kernels are vectorized numpy.  ``benchmarks/bench_kernels.py``
times them on desk-scale inputs.
"""

from __future__ import annotations

import numpy as np

# There is no numba path; the constant stays because the environment
# record in perfbench/run.py reads it.
HAS_NUMBA = False

__all__ = ["accumulate_echoes", "backproject_block"]


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
