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
    n_last = rows.shape[1] - 3
    x = (dtau - t0) / dt
    base = np.floor(x).astype(np.int64)
    frac = x - base
    valid = (base >= 1) & (base <= n_last)
    safe = np.clip(base, 1, n_last)
    rowidx = np.arange(rows.shape[0])[:, None]
    w_m1 = -frac * (frac - 1.0) * (frac - 2.0) / 6.0
    w_0 = (frac + 1.0) * (frac - 1.0) * (frac - 2.0) / 2.0
    w_1 = -(frac + 1.0) * frac * (frac - 2.0) / 2.0
    w_2 = (frac + 1.0) * frac * (frac - 1.0) / 6.0
    vals = (
        w_m1 * rows[rowidx, safe - 1]
        + w_0 * rows[rowidx, safe]
        + w_1 * rows[rowidx, safe + 1]
        + w_2 * rows[rowidx, safe + 2]
    )
    vals[~valid] = 0.0
    return vals.sum(axis=0), (~valid).sum(axis=0).astype(np.int64)
