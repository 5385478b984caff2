"""Mover velocity estimation and per-mover trace separation.

The range-speed scan straightens the traces with a family of trial
velocities and scores how well the rows align; a mover produces a peak
at its range speed while stationary clutter peaks at zero.  The
cross-range speed is then found at a fixed range speed by minimizing
the residual of a second slow-time difference after straightening at
the mover's location.  The pipeline first removes the echoes of
stationary points located in a preliminary image, then peels movers
off one at a time with a windowed low-rank/sparse split in the
straightened coordinates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import find_peaks

from .annihil import locate_stationary, remove_stationary, tt_forward, tt_inverse
from .geom import (
    C_LIGHT,
    ViewFrame,
    compose_velocity,
    decompose_velocity,
    delta_tau_moving,
    make_frame,
)
from .imaging import ImageGrid, _parabolic_offset, image_compensated, peak_extract
from .rpca import WindowLayout, separate_windowed
from .signal import TraceMatrix, next_fast_odd, phase_ramp

__all__ = [
    "VelocityEstimate",
    "MoverSeparation",
    "trial_velocity",
    "g_curve",
    "find_speed_peaks",
    "estimate_range_speed",
    "g_perp_curve",
    "estimate_cross_speed",
    "estimate_location",
    "estimate_motion",
    "separate_movers",
]


def trial_velocity(frame: ViewFrame, u: float) -> np.ndarray:
    """In-plane trial velocity with range speed u and zero cross speed.

    The vector u * (b_m, 0) / |b_m|^2 projects onto the line of sight
    with speed exactly u, so straightening with it cancels a mover's
    range-speed slope regardless of the mover's cross motion.
    """
    b_m = frame.b_m
    scale = float(b_m @ b_m)
    if scale == 0.0:
        raise ValueError("line of sight is vertical; range speed is unobservable")
    return np.array([u * b_m[0] / scale, u * b_m[1] / scale, 0.0])


class _BasebandRows:
    """Valid trace rows as one-sided spectra ready for fractional shifts.

    Shifting by a per-row delay is a phase ramp on the spectrum.  When
    the carrier and bandwidth are recorded in the trace metadata, only
    the occupied band (carrier +- 2 bandwidth) is kept and inverted on
    a coarser grid; magnitudes of row combinations are unchanged and
    the scans run several times faster.
    """

    def __init__(self, trace: TraceMatrix):
        start, stop = trace.valid_rows
        rows = trace.data[start:stop]
        count = rows.shape[1]
        spectra = np.fft.rfft(rows, axis=1)
        one_sided = spectra.copy()
        one_sided[:, 1:] *= 2.0
        df = 1.0 / (count * trace.axis.dt)
        nu0 = trace.meta.get("nu0")
        bandwidth = trace.meta.get("bandwidth")
        self.count, self.dt = count, trace.axis.dt
        self.spectra, self.k_lo, self.ifft_len = one_sided, 0, count
        if nu0 is not None and bandwidth is not None:
            k0 = int(round(nu0 / df))
            keep = next_fast_odd(max(3, int(np.ceil(4.0 * bandwidth / df))))
            k_lo = k0 - keep // 2
            if keep < count and k_lo >= 1 and k_lo + keep <= spectra.shape[1]:
                self.spectra = one_sided[:, k_lo : k_lo + keep]
                self.k_lo, self.ifft_len = k_lo, keep

    def shifted(self, delays: np.ndarray) -> np.ndarray:
        """Complex rows advanced by per-row ``delays`` (out(t) = in(t + d))."""
        phased = self.spectra * phase_ramp(
            delays, self.count, self.dt, k0=self.k_lo, bins=self.spectra.shape[1]
        )
        if self.ifft_len == phased.shape[1]:
            return np.fft.ifft(phased, axis=1)
        padded = np.zeros((phased.shape[0], self.ifft_len), dtype=complex)
        padded[:, : phased.shape[1]] = phased
        return np.fft.ifft(padded, axis=1)


def _default_speed_grid(trace: TraceMatrix, step: float) -> np.ndarray:
    top = trace.traj.speed
    return np.arange(-top, top + 0.5 * step, step)


def g_curve(
    trace: TraceMatrix, u_grid: np.ndarray | None = None, step: float = 0.25
) -> tuple[np.ndarray, np.ndarray]:
    """Row-alignment score g(u) over a grid of trial range speeds.

    For each trial u the rows are straightened at the scene reference
    with velocity ``trial_velocity(u)`` and the magnitudes are summed
    across rows; g(u) is the maximum of that fast-time profile.  A
    mover with range speed u0 aligns (and peaks) near u = u0.
    """
    if not trace.compressed:
        raise ValueError("speed scans expect range-compressed traces")
    if u_grid is None:
        u_grid = _default_speed_grid(trace, step)
    u_grid = np.asarray(u_grid, dtype=float)
    frame = make_frame(trace.traj, trace.rho_o)
    start, stop = trace.valid_rows
    s = trace.s_times[start:stop]
    rows = _BasebandRows(trace)
    values = np.empty(u_grid.size)
    for i, u in enumerate(u_grid):
        delays = delta_tau_moving(
            trace.traj, s, trace.rho_o, trial_velocity(frame, u), trace.rho_o
        )
        profile = np.abs(rows.shifted(delays)).sum(axis=0)
        values[i] = profile.max()
    return u_grid, values


def find_speed_peaks(
    u_grid: np.ndarray, values: np.ndarray, height_factor: float = 3.0
) -> list[tuple[float, float]]:
    """Significant local maxima of a g(u) curve, strongest first.

    A peak must exceed ``height_factor`` times the curve median, which
    rejects the clutter plateau when no mover is present.  Peak
    positions are refined by a parabolic fit through the neighbors.
    """
    values = np.asarray(values, dtype=float)
    floor = height_factor * float(np.median(values))
    idx, _ = find_peaks(values, height=floor)
    order = idx[np.argsort(values[idx])[::-1]]
    step = u_grid[1] - u_grid[0] if u_grid.size > 1 else 0.0
    peaks = []
    for i in order:
        u = u_grid[i]
        if 0 < i < u_grid.size - 1:
            u = u + step * _parabolic_offset(values[i - 1], values[i], values[i + 1])
        peaks.append((float(u), float(values[i])))
    return peaks


def estimate_range_speed(
    trace: TraceMatrix,
    u_grid: np.ndarray | None = None,
    step: float = 0.25,
    height_factor: float = 3.0,
) -> list[tuple[float, float]]:
    """Range-speed peaks of g(u), strongest first (may be empty)."""
    u_grid, values = g_curve(trace, u_grid, step)
    return find_speed_peaks(u_grid, values, height_factor)


def g_perp_curve(
    trace: TraceMatrix,
    rho_e,
    u: float,
    u_perp_grid: np.ndarray | None = None,
    step: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Misalignment score over trial cross-range speeds at fixed u.

    The trace is straightened at rho_e with the composed trial
    velocity; the remaining slow-time curvature is scored by the total
    magnitude of the second slow-time difference, which is smallest
    when the trial matches the mover's cross-range speed.
    """
    if not trace.compressed:
        raise ValueError("speed scans expect range-compressed traces")
    if u_perp_grid is None:
        u_perp_grid = _default_speed_grid(trace, step)
    u_perp_grid = np.asarray(u_perp_grid, dtype=float)
    rho_e = np.asarray(rho_e, dtype=float)
    frame = make_frame(trace.traj, trace.rho_o)
    start, stop = trace.valid_rows
    s = trace.s_times[start:stop]
    rows = _BasebandRows(trace)
    values = np.empty(u_perp_grid.size)
    for i, u_perp in enumerate(u_perp_grid):
        u_vec = compose_velocity(frame, u, u_perp)
        delays = delta_tau_moving(trace.traj, s, rho_e, u_vec, trace.rho_o)
        shifted = rows.shifted(delays)
        second = shifted[2:] - 2.0 * shifted[1:-1] + shifted[:-2]
        values[i] = np.abs(second).sum()
    return u_perp_grid, values


def estimate_cross_speed(
    trace: TraceMatrix,
    rho_e,
    u: float,
    u_perp_grid: np.ndarray | None = None,
    step: float = 0.5,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Cross-range speed minimizing the g_perp misalignment score."""
    grid, values = g_perp_curve(trace, rho_e, u, u_perp_grid, step)
    i = int(np.argmin(values))
    u_perp = grid[i]
    if 0 < i < grid.size - 1:
        step_eff = grid[1] - grid[0]
        # The vertex of the negated curve: its top is the minimum.
        u_perp = u_perp + step_eff * _parabolic_offset(
            -values[i - 1], -values[i], -values[i + 1]
        )
    return float(u_perp), (grid, values)


def estimate_location(
    trace: TraceMatrix,
    u_vec,
    center=None,
    extent: float = 80.0,
    spacing: float | None = None,
) -> np.ndarray:
    """Mover location from the peak of a motion-compensated image.

    Warns when the peak stands less than 3 dB above the median
    envelope, a sign that the compensation velocity is wrong or the
    trace holds no localized scatterer.
    """
    if spacing is None:
        bandwidth = trace.meta.get("bandwidth")
        if bandwidth is None:
            raise ValueError("trace metadata lacks a bandwidth; pass spacing")
        spacing = C_LIGHT / (2.0 * bandwidth)
    center = trace.rho_o if center is None else np.asarray(center, dtype=float)
    grid = ImageGrid(center=center, extent_x=extent, extent_y=extent, spacing=spacing)
    img = image_compensated(trace, grid, u_vec)
    (position, peak_value), = peak_extract(img, k=1)
    floor = float(np.median(img.envelope))
    if floor > 0.0:
        contrast_db = 20.0 * np.log10(peak_value / floor)
        if contrast_db < 3.0:
            warnings.warn(
                f"focus peak only {contrast_db:.2f} dB above the median "
                "envelope; location estimate is unreliable",
                RuntimeWarning,
                stacklevel=2,
            )
    return position


@dataclass(frozen=True)
class VelocityEstimate:
    """Estimated mover state: speeds, composed velocity, location.

    ``g_samples`` and ``g_perp_samples`` hold the sampled objective
    curves (grid, values) that produced the speed estimates, when the
    estimate came from a scan.  When a ``frame`` is attached,
    construction verifies that the velocity vector reproduces the
    stated range and cross-range speeds under the frame's projections
    to within 1e-10.
    """

    u: float
    u_perp: float
    u_vec: np.ndarray
    rho: np.ndarray
    g_score: float
    frame: ViewFrame | None = None
    g_samples: tuple[np.ndarray, np.ndarray] | None = None
    g_perp_samples: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        u_vec = np.asarray(self.u_vec, dtype=float)
        rho = np.asarray(self.rho, dtype=float)
        object.__setattr__(self, "u_vec", u_vec)
        object.__setattr__(self, "rho", rho)
        if u_vec.shape != (3,) or rho.shape != (3,):
            raise ValueError("u_vec and rho must be 3-vectors")
        if self.frame is not None:
            u_chk, u_perp_chk = decompose_velocity(self.frame, u_vec)
            scale = max(1.0, float(np.linalg.norm(u_vec)))
            if abs(u_chk - self.u) > 1e-10 * scale or abs(
                u_perp_chk - self.u_perp
            ) > 1e-10 * scale:
                raise ValueError(
                    "u_vec is inconsistent with the stated range and "
                    "cross-range speeds"
                )

    def to_dict(self, include_curves: bool = False) -> dict:
        out = {
            "u_meters_per_second": self.u,
            "u_perp_meters_per_second": self.u_perp,
            "u_vec_meters_per_second": self.u_vec.tolist(),
            "rho_meters": self.rho.tolist(),
            "g_score": self.g_score,
        }
        if include_curves:
            for key, samples in (
                ("g", self.g_samples),
                ("g_perp", self.g_perp_samples),
            ):
                if samples is not None:
                    out[f"{key}_grid"] = samples[0].tolist()
                    out[f"{key}_values"] = samples[1].tolist()
        return out


def estimate_motion(
    trace: TraceMatrix,
    u: float,
    g_score: float,
    u_vec=None,
    rho=None,
    u_perp_grid: np.ndarray | None = None,
    step: float = 0.5,
    extent: float = 80.0,
    g_samples: tuple[np.ndarray, np.ndarray] | None = None,
) -> VelocityEstimate:
    """One mover's state at range speed u: locate, cross speed, relocate.

    The mover is located in an image compensated with ``u_vec``
    (default ``trial_velocity(frame, u)``), its cross-range speed is
    scanned at that location, and it is located again at the composed
    velocity.  A given ``rho`` is kept and skips both images.
    ``g_samples``, the range-speed curve that gave u, is only stored.
    """
    frame = make_frame(trace.traj, trace.rho_o)
    located = rho is None
    if located:
        first = trial_velocity(frame, u) if u_vec is None else u_vec
        rho = estimate_location(trace, first, extent=extent)
    u_perp, g_perp_samples = estimate_cross_speed(trace, rho, u, u_perp_grid, step)
    u_vec = compose_velocity(frame, u, u_perp)
    if located:
        rho = estimate_location(trace, u_vec, extent=extent)
    return VelocityEstimate(
        u=u,
        u_perp=u_perp,
        u_vec=u_vec,
        rho=rho,
        g_score=g_score,
        frame=frame,
        g_samples=g_samples,
        g_perp_samples=g_perp_samples,
    )


@dataclass(frozen=True)
class MoverSeparation:
    """Output of the full detection pipeline.

    ``low`` holds the removed echoes of the located stationary points,
    or the low-rank part of the windowed split that stands in for the
    removal; ``movers[i]`` is the trace attributed to ``estimates[i]``;
    ``residual`` is what remains after peeling every mover.
    ``diagnostics["windows"]`` holds the per-window solver records of
    each windowed split, in order, and ``diagnostics["feasibility"]``
    the worst split's feasibility.
    """

    low: TraceMatrix
    movers: tuple[TraceMatrix, ...]
    estimates: tuple[VelocityEstimate, ...]
    residual: TraceMatrix
    diagnostics: dict = field(default_factory=dict)


def _refine_speed(
    trace: TraceMatrix, u: float, step: float, half_width: float = 2.0
) -> tuple[float, float, tuple[np.ndarray, np.ndarray]]:
    """Re-peak g(u) on a narrow grid around a prior estimate."""
    grid = np.arange(u - half_width, u + half_width + 0.5 * step, step)
    grid, values = g_curve(trace, u_grid=grid)
    i = int(np.argmax(values))
    refined = grid[i]
    if 0 < i < grid.size - 1:
        refined = refined + step * _parabolic_offset(
            values[i - 1], values[i], values[i + 1]
        )
    return float(refined), float(values[i]), (grid, values)


def separate_movers(
    trace: TraceMatrix,
    max_movers: int = 2,
    layout: WindowLayout | None = None,
    u_step: float = 0.25,
    u_perp_step: float = 0.5,
    extent: float = 80.0,
    height_factor: float = 3.0,
) -> MoverSeparation:
    """Detect, characterize, and peel movers from a mixed trace.

    The stationary scene is removed first: stationary points are located
    in a preliminary image over a box of side ``extent`` and their echoes
    taken out by ``annihil.remove_stationary``.  Each round then scans
    the remainder for the strongest range-speed peak, locates the mover,
    estimates its cross-range speed, and peels its trace by a windowed
    low-rank/sparse split in the straightened coordinates, which also
    leaves behind whatever clutter the removal missed.  No windowed
    split runs between the removal and the peels: with the stationary
    echoes gone it would only move mover energy into its low-rank part.
    Where the preliminary image locates no stationary points (see
    ``annihil.locate_stationary``), ``rpca.separate_windowed`` stands
    in for the removal.  The speeds and location are then re-estimated
    on the peeled single-mover trace, where the objective curves are no
    longer biased by other movers.
    """
    points = locate_stationary(trace, extent=extent)
    splits: list[list] = []
    feasibility = 0.0
    if len(points):
        removal = remove_stationary(trace, points)
        low, residual = removal.stationary, removal.rest
    else:
        initial = separate_windowed(trace, layout=layout)
        low, residual = initial.low, initial.sparse
        splits.append(initial.diagnostics)
        feasibility = initial.feasibility
    movers: list[TraceMatrix] = []
    estimates: list[VelocityEstimate] = []
    g_curves: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(max_movers):
        u_grid, values = g_curve(residual, step=u_step)
        g_curves.append((u_grid, values))
        peaks = find_speed_peaks(u_grid, values, height_factor)
        if not peaks:
            break
        u, score = peaks[0]
        scan = estimate_motion(residual, u, score, step=u_perp_step, extent=extent)
        straightened = tt_forward(residual, scan.rho, scan.u_vec)
        peel = separate_windowed(straightened, layout=layout)
        splits.append(peel.diagnostics)
        feasibility = max(feasibility, peel.feasibility)
        mover = tt_inverse(peel.low, scan.rho, scan.u_vec)
        residual = tt_inverse(peel.sparse, scan.rho, scan.u_vec)
        # Refine on the peeled trace: the other movers are gone, so the
        # curves peak where this mover actually is.
        u, score, g_samples = _refine_speed(mover, u, u_step)
        movers.append(mover)
        estimates.append(
            estimate_motion(
                mover,
                u,
                score,
                u_vec=scan.u_vec,
                step=u_perp_step,
                extent=extent,
                g_samples=g_samples,
            )
        )
    return MoverSeparation(
        low=low,
        movers=tuple(movers),
        estimates=tuple(estimates),
        residual=residual,
        diagnostics={
            "windows": splits,
            "g_curves": g_curves,
            "feasibility": feasibility,
        },
    )
