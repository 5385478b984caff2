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

from .annihil import (
    _track_delays,
    locate_stationary,
    remove_stationary,
    tt_forward,
    tt_inverse,
)
from .geom import (
    ViewFrame,
    compose_velocity,
    decompose_velocity,
    delta_tau_moving,
    make_frame,
)
from .imaging import (
    _local_maxima,
    _location_grid,
    _refine_peaks,
    image_compensated,
    peak_extract,
)
from .kernels import _in_chunks
from .rpca import separate_windowed
from .signal import AnalyticRows, TraceMatrix

__all__ = [
    "VelocityEstimate",
    "MoverSeparation",
    "trial_velocity",
    "g_curve",
    "find_speed_peaks",
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


#: Trial-speed steps of the range-speed and cross-speed scans, m/s.
_U_STEP = 0.25
_U_PERP_STEP = 0.5


def _default_speed_grid(trace: TraceMatrix, step: float) -> np.ndarray:
    top = trace.traj.speed
    return np.arange(-top, top + 0.5 * step, step)


#: Trials whose rows one FFT call shifts together in a scan.
_SCAN_BATCH = 2


def _scan(trace: TraceMatrix, rho, velocities, score) -> np.ndarray:
    """``score`` of the analytic valid rows straightened along each
    track rho + s u_vec, for u_vec in ``velocities``.

    The trials are independent: ``kernels._in_chunks`` gives each CPU a
    contiguous run of them, on threads that this call starts and joins
    before it returns.  Each thread takes ``_SCAN_BATCH`` trials at a
    time, with one ``delta_tau_moving`` call and one FFT call per
    batch.  Each score sees one trial's rows, so the curve does not
    depend on the chunks or the batches.
    """
    if not trace.compressed:
        raise ValueError("speed scans expect range-compressed traces")
    start, stop = trace.valid_rows
    s = trace.s_times[start:stop]
    rows = AnalyticRows(trace)
    velocities = np.reshape(velocities, (-1, 1, 3))

    def part(a, b):
        curve = []
        for i in range(a, b, _SCAN_BATCH):
            batch = velocities[i : min(i + _SCAN_BATCH, b)]
            delays = delta_tau_moving(trace.traj, s, rho, batch, trace.rho_o)
            curve.extend(score(z) for z in rows.shifted(delays))
        return curve

    return np.array([g for chunk in _in_chunks(part, len(velocities)) for g in chunk])


def g_curve(
    trace: TraceMatrix, u_grid: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Row-alignment score g(u) over a grid of trial range speeds.

    For each trial u the rows are straightened at the scene reference
    with velocity ``trial_velocity(u)`` and the magnitudes are summed
    across rows; g(u) is the maximum of that fast-time profile.  A
    mover with range speed u0 aligns (and peaks) near u = u0.  The
    default grid spans +-the platform speed in steps of 0.25 m/s.
    """
    if u_grid is None:
        u_grid = _default_speed_grid(trace, _U_STEP)
    u_grid = np.asarray(u_grid, dtype=float)
    frame = make_frame(trace.traj, trace.rho_o)
    velocities = [trial_velocity(frame, u) for u in u_grid]
    return u_grid, _scan(
        trace, trace.rho_o, velocities, lambda z: np.abs(z).sum(axis=0).max()
    )


def find_speed_peaks(
    u_grid: np.ndarray, values: np.ndarray, height_factor: float = 3.0
) -> list[tuple[float, float]]:
    """Significant local maxima of a g(u) curve, strongest first.

    The rule is ``imaging._local_maxima``, the one that finds points in
    the preliminary image.  A peak must reach ``height_factor`` times the
    curve median, which rejects the clutter plateau when no mover is
    present.  Peak positions are refined by a parabolic fit through the
    neighbors.
    """
    values = np.asarray(values, dtype=float)
    (order,) = _local_maxima(values, height_factor * float(np.median(values)))
    step = u_grid[1] - u_grid[0] if u_grid.size > 1 else 0.0
    u = _refine_peaks(values, (order,), (u_grid,), (step,))[:, 0]
    return list(zip(u.tolist(), values[order].tolist()))


def g_perp_curve(
    trace: TraceMatrix,
    rho_e,
    u: float,
    u_perp_grid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Misalignment score over trial cross-range speeds at fixed u.

    The trace is straightened at rho_e with the composed trial
    velocity; the remaining slow-time curvature is scored by the total
    magnitude of the second slow-time difference, which is smallest
    when the trial matches the mover's cross-range speed.  The default
    grid spans +-the platform speed in steps of 0.5 m/s.
    """
    if u_perp_grid is None:
        u_perp_grid = _default_speed_grid(trace, _U_PERP_STEP)
    u_perp_grid = np.asarray(u_perp_grid, dtype=float)
    frame = make_frame(trace.traj, trace.rho_o)
    velocities = [compose_velocity(frame, u, u_perp) for u_perp in u_perp_grid]
    rho_e = np.asarray(rho_e, dtype=float)
    return u_perp_grid, _scan(
        trace, rho_e, velocities, lambda z: np.abs(z[2:] - 2.0 * z[1:-1] + z[:-2]).sum()
    )


def estimate_cross_speed(
    trace: TraceMatrix,
    rho_e,
    u: float,
    u_perp_grid: np.ndarray | None = None,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Cross-range speed minimizing the g_perp misalignment score."""
    grid, values = g_perp_curve(trace, rho_e, u, u_perp_grid)
    du = grid[1] - grid[0] if grid.size > 1 else 0.0
    # The vertex of the negated curve: its top is the minimum.
    u_perp = _refine_peaks(-values, (np.argmin(values),), (grid,), (du,))[0, 0]
    return float(u_perp), (grid, values)


def estimate_location(trace: TraceMatrix, u_vec, extent: float = 80.0) -> np.ndarray:
    """Mover location from the peak of a motion-compensated image.

    The image covers a square box of side ``extent`` around the
    reference point at c/2B spacing, with B the bandwidth recorded in
    the trace metadata; its strongest pixel is the location.  Warns when
    the peak stands less than 3 dB above the median envelope, a sign
    that the compensation velocity is wrong or the trace holds no
    localized scatterer.
    """
    img = image_compensated(trace, _location_grid(trace, extent), u_vec)
    position, peak_value = peak_extract(img)
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
    u_perp, g_perp_samples = estimate_cross_speed(trace, rho, u, u_perp_grid)
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
    each windowed split, in order, ``diagnostics["feasibility"]`` the
    worst split's feasibility, and ``diagnostics["max_shift_frac"]`` the
    largest straightening shift of a peel as a fraction of the gate.
    ``low``, the movers and ``residual`` sum to the input.
    """

    low: TraceMatrix
    movers: tuple[TraceMatrix, ...]
    estimates: tuple[VelocityEstimate, ...]
    residual: TraceMatrix
    diagnostics: dict = field(default_factory=dict)


def _refine_speed(
    trace: TraceMatrix, u: float
) -> tuple[float, float, tuple[np.ndarray, np.ndarray]]:
    """Re-peak g(u) on a grid of +-2 m/s around a prior estimate."""
    grid = np.arange(u - 2.0, u + 2.0 + 0.5 * _U_STEP, _U_STEP)
    grid, values = g_curve(trace, u_grid=grid)
    i = int(np.argmax(values))
    u = _refine_peaks(values, (i,), (grid,), (_U_STEP,))[0, 0]
    return float(u), float(values[i]), (grid, values)


def separate_movers(
    trace: TraceMatrix,
    max_movers: int = 2,
    extent: float = 80.0,
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
    ``annihil.locate_stationary``), the split of
    ``rpca.separate_windowed`` stands in for the removal.  The speeds
    and location are then re-estimated on the peeled single-mover trace,
    where the objective curves are no longer biased by other movers.
    A negative ``max_movers`` raises ``ValueError``.
    """
    if max_movers < 0:
        raise ValueError(f"max_movers must be non-negative, got {max_movers}")
    points = locate_stationary(trace, extent=extent)
    splits: list[list] = []
    feasibility = max_shift_frac = 0.0
    gate = trace.m * trace.axis.dt
    if len(points):
        removal = remove_stationary(trace, points)
        low, residual = removal.stationary, removal.rest
    else:
        initial = separate_windowed(trace)
        low = initial.low
        # The solver's feasibility gap stays in the residual.
        residual = initial.sparse.replace(data=trace.data - low.data)
        splits.append(initial.diagnostics)
        feasibility = initial.feasibility
    movers: list[TraceMatrix] = []
    estimates: list[VelocityEstimate] = []
    g_curves: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(max_movers):
        u_grid, values = g_curve(residual)
        g_curves.append((u_grid, values))
        peaks = find_speed_peaks(u_grid, values)
        if not peaks:
            break
        u, score = peaks[0]
        scan = estimate_motion(residual, u, score, extent=extent)
        delays = _track_delays(residual, scan.rho, scan.u_vec)
        max_shift_frac = max(max_shift_frac, float(np.max(np.abs(delays))) / gate)
        straightened = tt_forward(residual, scan.rho, scan.u_vec)
        peel = separate_windowed(straightened)
        splits.append(peel.diagnostics)
        feasibility = max(feasibility, peel.feasibility)
        mover = tt_inverse(peel.low, scan.rho, scan.u_vec)
        residual = residual.replace(data=residual.data - mover.data)
        # Refine on the peeled trace: the other movers are gone, so the
        # curves peak where this mover actually is.
        u, score, g_samples = _refine_speed(mover, u)
        movers.append(mover)
        estimates.append(
            estimate_motion(
                mover,
                u,
                score,
                u_vec=scan.u_vec,
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
            "max_shift_frac": max_shift_frac,
        },
    )
