"""Hot loops: echo accumulation, backprojection sampling, and the one
block runner that spreads every blocked loop over the CPUs.

Both kernels are vectorized numpy.  ``accumulate_echoes`` sums every
(row, target) echo in blocks of rows and takes its carrier by angle
addition from one cos/sin table that all echoes of a call share and
one cos/sin per echo, so its only per-sample transcendental is the
envelope's ``exp``; on the preset scenes it matches a direct
per-sample evaluation to about 2e-12 of the trace's peak.
``backproject_block`` samples only a block's in-gate (row, pixel)
pairs and sums them per pixel in row order, by a scatter into a zeroed
block and one sum over its rows.
``benchmarks/bench_kernels.py`` times both kernels on desk-scale
inputs.

``_in_blocks`` runs each loop of the pipeline over independent blocks,
every block writing only its own outputs.  The loops and their blocks:

- ``accumulate_echoes``: as many rows as keep each temporary within
  ``_ECHO_CHUNK`` values;
- ``signal._shift_spectra`` (the spectral shifts of
  ``signal.fractional_shift`` and ``annihil.annihilate``):
  ``_ROW_CHUNK`` rows;
- ``motion._scan``: ``motion._SCAN_BATCH`` trial velocities;
- ``imaging.image_points``: ``imaging._BLOCK`` pixels.

Each worker, one per CPU of the process's affinity mask up to
``_MAX_WORKERS``, takes a contiguous run of blocks.  The calling thread
runs the first run and a pool opened for the call runs the others,
joined before the call returns; a call with one worker or one block
runs in the calling thread and opens no pool.  numpy releases the GIL
inside its FFTs and array loops, so the runs overlap.  The blocks
depend on their size alone, not on the number of workers, so neither
do the results.
"""

from __future__ import annotations

import os
import threading

import numpy as np

# There is no numba path; the constant stays because the environment
# record in perfbench/run.py reads it.
HAS_NUMBA = False

__all__ = ["accumulate_echoes", "backproject_block"]

#: Most threads a call of ``_in_blocks`` uses.  Each thread holds one
#: image block or one scan batch at a time, so the cap bounds the
#: working set however many CPUs there are: four 256-point blocks hold
#: as many samples as one thread's 1024-point block.
_MAX_WORKERS = 4

#: Most values in each temporary array of ``accumulate_echoes``'s row
#: blocks (1 MB of float64).
_ECHO_CHUNK = 1 << 17

#: Rows per block of the spectral shifts: a phase ramp holds this many
#: rows (3 MB on example2's 11907-sample rows).  Over perfbench
#: annihil-rank's four filters on two CPUs, 16 rows took 6-10% longer
#: than 32 and 64 rows 2-5% less; 32 still cuts example2's 117 rows
#: into four blocks, one per thread at the cap.
_ROW_CHUNK = 32

#: Threads that run a call of ``_in_blocks``, the caller included: one
#: per CPU the process may run on, up to ``_MAX_WORKERS``.
if hasattr(os, "sched_getaffinity"):
    _WORKERS = min(len(os.sched_getaffinity(0)), _MAX_WORKERS)
else:
    _WORKERS = min(os.cpu_count() or 1, _MAX_WORKERS)


def _in_blocks(part, count: int, size: int) -> list:
    """``[part(a, b), ...]`` over the blocks [k size, min((k + 1) size,
    count)) of range(count), in block order.

    Each worker takes a contiguous run of blocks; the calling thread
    runs the first run and a pool opened for this call runs the others.
    With one worker or one block everything runs in the calling thread
    and no pool opens.  The pool joins every run before the call
    returns, so no thread outlives it; then the first failed run's
    exception is raised.
    """
    blocks = -(-count // size)

    def run(first, last):
        return [
            part(a, min(a + size, count))
            for a in range(first * size, min(last * size, count), size)
        ]

    runs = min(_WORKERS, blocks)
    if runs <= 1:
        return run(0, blocks)
    from concurrent.futures import ThreadPoolExecutor

    bounds = [blocks * k // runs for k in range(runs + 1)]
    with ThreadPoolExecutor(runs - 1, thread_name_prefix="sarsep") as pool:
        futures = [pool.submit(run, *span) for span in zip(bounds[1:-1], bounds[2:])]
        first = run(bounds[0], bounds[1])
    return first + [out for future in futures for out in future.result()]


def accumulate_echoes(out, tau, t0, dt, nu0, bandwidth, amps, half_support):
    """Add one Gaussian-carrier echo per (row, target) pair into ``out``.

    out[j, i] += amps[k] * cos(2 pi nu0 (t_i - tau[j, k]))
                 * exp(-(bandwidth (t_i - tau[j, k]))^2 / 2)
    restricted to |t_i - tau[j, k]| <= half_support, with t_i = t0 + i dt.

    Echo (j, k) covers the samples i_lo .. i_hi with i_lo = ceil((tau -
    half_support - t0) / dt) and i_hi = floor((tau + half_support - t0)
    / dt), clipped to the gate.  Its carrier comes by angle addition,
    cos(w0 (d + l dt)) = cos(w0 d) cos(w0 l dt) - sin(w0 d) sin(w0 l dt),
    about a reference sample i_c, the sample nearest tau within the
    echo's window of samples, with d = t_c - tau its offset and l = i -
    i_c the lag.  One cos/sin table of w0 l dt serves every echo of the
    call, and each echo takes one cos/sin of w0 d, so the only
    per-sample transcendental is the envelope's ``exp``.  Near the echo's peak both phases are small, so
    the rounding of the table's phases, like that of a direct per-sample
    evaluation, grows only where the envelope falls.  On the preset
    scenes the samples differ from the direct evaluation by at most
    about 2e-12 of the trace's peak, and lie closer than it to the sum
    evaluated in long double.

    Rows run in blocks on ``_in_blocks`` (see the module docstring).  In
    a block every echo spans the longest echo's samples, those past its
    own last sample weighted zero, and ``np.bincount`` sums the echoes
    per sample in (row, target) order, so targets that overlap within a
    row add in the order of a loop over the pairs.
    """
    tau = np.asarray(tau, dtype=float)
    amps = np.asarray(amps, dtype=float)
    n_rows, n_t = out.shape
    first = np.clip(np.ceil((tau - half_support - t0) / dt), 0.0, n_t)
    last = np.minimum(np.floor((tau + half_support - t0) / dt), n_t - 1.0)
    counts = last - first + 1.0
    width = int(counts.max(initial=0.0))
    if width <= 0:
        return out
    omega0 = 2.0 * np.pi * nu0
    # Reference sample of each echo, as an offset from its first sample.
    center = np.clip(np.rint((tau - t0) / dt) - first, 0.0, width - 1.0)
    offset = t0 + (first + center) * dt - tau
    amp_cos = (amps * np.cos(omega0 * offset)).reshape(-1, 1)
    amp_sin = (amps * np.sin(omega0 * offset)).reshape(-1, 1)
    offset = offset.reshape(-1, 1)
    # Row c of each table holds lags -c .. width - 1 - c: an echo's
    # samples with reference sample c.
    lags = np.arange(1 - width, width) * dt
    lag_rows, cos_rows, sin_rows = (
        np.lib.stride_tricks.sliding_window_view(table, width)[::-1]
        for table in (lags, np.cos(omega0 * lags), np.sin(omega0 * lags))
    )
    center = center.astype(np.intp).ravel()
    counts = counts.reshape(-1, 1)
    m = np.arange(width)
    n_targets = tau.shape[1]
    starts = (np.arange(n_rows)[:, None] * n_t + first.astype(np.int64)).reshape(-1, 1)
    step = max(1, _ECHO_CHUNK // max(n_targets * width, n_t))
    scale = -0.5 * bandwidth**2
    # Each thread keeps its last block's sum, the block's last
    # allocation, until its next block has made its own.  Without it the
    # block's freed arrays left the top of the heap free, glibc returned
    # it to the system after every block, and the next block faulted it
    # in again: a first example2 simulation in a process took 170-190 ms
    # against 90-100 ms with a loop over the blocks (one worker, 2-vCPU
    # Xeon VM).
    kept = {}

    def part(r0, r1):
        pairs = slice(r0 * n_targets, r1 * n_targets)
        ref = center[pairs]
        td = lag_rows[ref]
        td += offset[pairs]
        vals = np.exp(scale * td * td)
        carrier = cos_rows[ref]
        carrier *= amp_cos[pairs]
        quadrature = sin_rows[ref]
        quadrature *= amp_sin[pairs]
        carrier -= quadrature
        vals *= carrier
        vals *= m < counts[pairs]
        index = (starts[pairs] - r0 * n_t) + m
        size = (r1 - r0) * n_t
        summed = np.bincount(index.ravel(), vals.ravel(), minlength=size)
        out[r0:r1] += summed[:size].reshape(r1 - r0, n_t)
        kept[threading.get_ident()] = summed

    _in_blocks(part, n_rows, step)
    return out


def backproject_block(rows, t0, dt, dtau):
    """Sum cubic-interpolated samples of complex rows at per-pixel delays.

    Only the in-gate (row, pixel) pairs are sampled: one
    ``np.flatnonzero`` compacts them in row-major order, and the
    four-tap cubic weights and the four ``take``s from the flattened
    rows run on those pairs alone.  The weighted samples are scattered
    into a zeroed rows x pixels block and summed over its rows, so each
    pixel's samples are added in row order and out-of-gate pairs add
    nothing.  The block has one spare zero column: with a single pixel,
    numpy would otherwise sum the rows as one pairwise reduction, in
    another order.

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
    x = dtau - t0
    x /= dt
    # floor(x) lies in [1, M - 3] exactly when x lies in [1, M - 2).
    inside = x >= 1.0
    inside &= x < width - 2.0
    keep = np.flatnonzero(inside)
    frac = x.take(keep)
    base = np.floor(frac)
    frac -= base
    row = keep // n_pix
    # Flat index of each pair's first tap, base - 1 on its row.
    first = row * width
    first += base.astype(np.int64)
    first -= 1
    fp1, fm1, fm2 = frac + 1.0, frac - 1.0, frac - 2.0
    flat = rows.reshape(-1)
    vals = (-frac * fm1 * fm2 / 6.0) * flat.take(first)
    vals += (fp1 * fm1 * fm2 / 2.0) * flat[1:].take(first)
    vals += (-fp1 * frac * fm2 / 2.0) * flat[2:].take(first)
    vals += (fp1 * frac * fm1 / 6.0) * flat[3:].take(first)
    block = np.zeros((n_rows, n_pix + 1), dtype=complex)
    # Row r's pairs move r places on in the one column wider block.
    keep += row
    block.reshape(-1)[keep] = vals
    return block.sum(axis=0)[:n_pix], n_rows - inside.sum(axis=0)
