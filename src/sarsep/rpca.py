"""Principal component pursuit and the windowed separation pipeline.

``pcp_solve`` splits a matrix into low-rank plus sparse parts with an
inexact augmented-Lagrangian iteration, whose singular-value
thresholding runs through the eigendecomposition of the short side's
Gram matrix.  ``separate_windowed`` applies ``pcp_solve`` to successive
fast-time windows of a trace and stitches the parts back together;
windowing is what makes the separation work when the full matrix is
itself sparse.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .signal import TraceMatrix

#: Windows span this many 1/bandwidth units of fast time by default.
_WINDOW_SPAN_FACTOR = 16.0

#: Growth factor of the augmented-Lagrangian penalty per iteration.
_MU_GROWTH = 1.6

__all__ = [
    "PcpSolution",
    "pcp_solve",
    "WindowLayout",
    "choose_window",
    "SeparationResult",
    "separate_windowed",
]


@dataclass(frozen=True)
class PcpSolution:
    """Result of principal component pursuit on one matrix."""

    low: np.ndarray
    sparse: np.ndarray
    iterations: int
    converged: bool
    feasibility: float
    rank: int
    sparse_fraction: float


def _shrink(x: np.ndarray, threshold: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def _wide(g: np.ndarray) -> np.ndarray:
    """``g`` or its transpose, whichever has no more rows than columns."""
    return g.T if g.shape[0] > g.shape[1] else g


def _svd_threshold(g: np.ndarray, threshold: float) -> tuple[np.ndarray, int]:
    """Singular value thresholding; returns (thresholded g, kept count).

    With A the wide one of g and gᵀ, and (w, U) the eigenpairs of A Aᵀ,
    this is U_k diag(1 - threshold/sqrt(w_k)) U_kᵀ A over the k values
    with sqrt(w) above the threshold; it never divides by sqrt(w).
    """
    a = _wide(g)
    w, u = np.linalg.eigh(a @ a.T)
    sigma = np.sqrt(np.maximum(w, 0.0))
    kept = int(np.count_nonzero(sigma > threshold))
    if kept == 0:
        return np.zeros_like(g), 0
    # eigh sorts ascending, so the kept values are the last ones.
    u = u[:, -kept:]
    low = (u * (1.0 - threshold / sigma[-kept:])) @ (u.T @ a)
    return (low if a is g else low.T), kept


def pcp_solve(
    matrix: np.ndarray,
    eta: float | None = None,
    tol: float = 1e-7,
    max_iter: int = 1000,
) -> PcpSolution:
    """Split ``matrix`` into low-rank plus sparse parts.

    Solves min ||L||_* + eta ||S||_1 subject to L + S = M by the
    inexact augmented-Lagrangian method: alternating singular-value
    thresholding on L and entrywise soft-thresholding on S, with a dual
    update and a penalty that starts at 1.25/sigma_max and grows by
    1.6 per iteration.

    Parameters
    ----------
    matrix : 2-D real array
    eta : float, optional
        Sparsity weight; defaults to 1/sqrt(max dimension).
    tol : float
        Stop when ||M - L - S||_F / ||M||_F falls below this.
    max_iter : int
        Iteration cap; on hitting it the best iterate is returned with
        ``converged`` False.

    Raises
    ------
    ValueError
        If the input contains non-finite entries or is not 2-D, if
        ``eta`` is not positive, or if ``max_iter`` is below 1.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("pcp_solve expects a 2-D matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("pcp_solve input contains non-finite entries")
    if eta is not None and not eta > 0.0:
        raise ValueError(f"pcp_solve needs a positive eta, got {eta}")
    if max_iter < 1:
        raise ValueError(f"pcp_solve needs max_iter >= 1, got {max_iter}")
    if eta is None:
        eta = 1.0 / np.sqrt(max(m.shape))
    norm_fro = float(np.linalg.norm(m))
    if norm_fro == 0.0:
        z = np.zeros_like(m)
        return PcpSolution(z, z.copy(), 1, True, 0.0, 0, 0.0)
    a = _wide(m)
    norm_two = float(np.sqrt(np.linalg.eigvalsh(a @ a.T)[-1]))
    mu = 1.25 / norm_two
    mu_cap = mu * 1.0e7
    dual_scale = max(norm_two, float(np.abs(m).max()) / eta)
    y = m / dual_scale
    s = np.zeros_like(m)
    low = np.zeros_like(m)
    rank = 0
    feasibility = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        low, rank = _svd_threshold(m - s + y / mu, 1.0 / mu)
        s = _shrink(m - low + y / mu, eta / mu)
        gap = m - low - s
        y += mu * gap
        feasibility = float(np.linalg.norm(gap)) / norm_fro
        if feasibility <= tol:
            converged = True
            break
        mu = min(mu * _MU_GROWTH, mu_cap)
    if not converged:
        warnings.warn(
            f"pcp_solve hit the {max_iter}-iteration cap at feasibility "
            f"{feasibility:.2e}; returning the final iterate",
            RuntimeWarning,
            stacklevel=2,
        )
    sparse_fraction = float(np.count_nonzero(s)) / s.size
    return PcpSolution(
        low=low,
        sparse=s,
        iterations=iterations,
        converged=converged,
        feasibility=feasibility,
        rank=rank,
        sparse_fraction=sparse_fraction,
    )


@dataclass(frozen=True)
class WindowLayout:
    """Fast-time window length and overlap, in samples."""

    length: int
    overlap: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("window length must be positive")
        if not (0 <= self.overlap < self.length):
            raise ValueError("overlap must satisfy 0 <= overlap < length")

    def spans(self, total: int) -> list[tuple[int, int]]:
        """Half-open column spans tiling ``total`` columns."""
        if self.length >= total:
            return [(0, total)]
        stride = self.length - self.overlap
        starts = list(range(0, total - self.length + 1, stride))
        if starts[-1] != total - self.length:
            starts.append(total - self.length)
        return [(a, a + self.length) for a in starts]


def choose_window(n_cols: int, bandwidth: float, dt: float) -> WindowLayout:
    """Default layout: windows spanning 16/bandwidth of fast time.

    Length is clamped to [64, n_cols]; overlap is one eighth of the
    length.
    """
    length = int(round(_WINDOW_SPAN_FACTOR / (bandwidth * dt)))
    length = min(max(length, 64), n_cols)
    if length >= n_cols:
        return WindowLayout(length=n_cols, overlap=0)
    return WindowLayout(length=length, overlap=length // 8)


def _crossfade_weights(length: int, overlap: int) -> np.ndarray:
    w = np.ones(length)
    if overlap > 0:
        ramp = np.arange(1, overlap + 1) / (overlap + 1.0)
        w[:overlap] = ramp
        w[-overlap:] = ramp[::-1]
    return w


@dataclass(frozen=True)
class SeparationResult:
    """Windowed low-rank/sparse split of a trace matrix."""

    low: TraceMatrix
    sparse: TraceMatrix
    layout: WindowLayout
    diagnostics: list
    feasibility: float


def separate_windowed(
    trace: TraceMatrix,
    layout: WindowLayout | None = None,
    eta: float | None = None,
    tol: float = 1e-7,
    max_iter: int = 1000,
) -> SeparationResult:
    """Low-rank/sparse separation per fast-time window.

    Each window of columns of the valid rows is split by
    ``pcp_solve``; overlapping windows are blended with linear
    cross-fades applied to L and S with the same weights, so the
    stitched parts still sum to the input up to the solver feasibility.
    Each window's ``diagnostics`` record holds the solver's statistics
    and ``seconds``, the wall time of its ``pcp_solve``.

    Parameters
    ----------
    trace : TraceMatrix
        Range-compressed (or transformed) traces.
    layout : WindowLayout, optional
        Defaults to ``choose_window`` using the bandwidth recorded in
        the trace metadata; a trace without that record needs an
        explicit layout.
    eta, tol, max_iter :
        Passed to ``pcp_solve``; eta defaults per window to
        1/sqrt(max(rows, window length)).
    """
    if not trace.compressed:
        raise ValueError("separation expects range-compressed traces")
    n_cols = trace.m + 1
    if layout is None:
        bandwidth = trace.meta.get("bandwidth")
        if bandwidth is None:
            raise ValueError(
                "trace metadata lacks a bandwidth; pass an explicit layout"
            )
        layout = choose_window(n_cols, bandwidth, trace.axis.dt)
    start, stop = trace.valid_rows
    rows = trace.data[start:stop]
    acc_low = np.zeros_like(rows)
    acc_sparse = np.zeros_like(rows)
    acc_weight = np.zeros(n_cols)
    diagnostics = []
    for w_index, (a, b) in enumerate(layout.spans(n_cols)):
        started = time.perf_counter()
        solution = pcp_solve(
            rows[:, a:b], eta=eta, tol=tol, max_iter=max_iter
        )
        seconds = time.perf_counter() - started
        weights = _crossfade_weights(b - a, layout.overlap if b - a == layout.length else 0)
        acc_low[:, a:b] += solution.low * weights
        acc_sparse[:, a:b] += solution.sparse * weights
        acc_weight[a:b] += weights
        diagnostics.append(
            {
                "window": w_index,
                "columns": [a, b],
                "iterations": solution.iterations,
                "converged": solution.converged,
                "feasibility": solution.feasibility,
                "rank": solution.rank,
                "sparse_fraction": solution.sparse_fraction,
                "seconds": seconds,
            }
        )
    acc_low /= acc_weight
    acc_sparse /= acc_weight
    low_full = np.zeros_like(trace.data)
    sparse_full = np.zeros_like(trace.data)
    low_full[start:stop] = acc_low
    sparse_full[start:stop] = acc_sparse
    gap = float(np.linalg.norm(rows - acc_low - acc_sparse))
    denom = float(np.linalg.norm(rows))
    feasibility = gap / denom if denom > 0.0 else 0.0
    low = trace.replace(
        data=low_full, tag="filtered", meta={**trace.meta, "part": "low-rank"}
    )
    sparse = trace.replace(
        data=sparse_full, tag="filtered", meta={**trace.meta, "part": "sparse"}
    )
    return SeparationResult(
        low=low,
        sparse=sparse,
        layout=layout,
        diagnostics=diagnostics,
        feasibility=feasibility,
    )
