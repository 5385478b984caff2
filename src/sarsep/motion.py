"""Mover velocity estimation and per-mover trace separation.

The range-speed scan straightens the traces with a family of trial
velocities and scores how well the rows align; a mover produces a peak
at its range speed while stationary clutter peaks at zero.  The
cross-range speed is then found at a fixed range speed by minimizing
the residual of a second slow-time difference after straightening at
the mover's location.  The pipeline's scans (detection, cross speed and
the range-speed refinement) search their lattice coarse to fine
(``_scan_extremum``): every k-th trial first, with k at most 4 and no
wider than the narrowest peak the trace's geometry allows
(``_coarse_factor``), then the trials around the best coarse
candidates; every trial evaluated reads as in the full scan.  The
public ``g_curve`` and ``g_perp_curve`` evaluate exactly the grid they
are given.  The pipeline first removes the echoes of stationary points
located in a preliminary image, then peels movers off one at a time
with a low-rank/sparse split of one fast-time window around the
straightened mover.  Per mover it runs the detection (``g``),
``estimate_motion`` (locate, cross-speed search ``g_perp``, relocate)
on the remainder, the peel, the range-speed refinement (``g_refine``)
and ``estimate_motion`` on the peeled trace.

The location search (``estimate_location``) does not image its whole
box either: it images a lattice one main lobe apart
(``_search_steps``), then climbs pixel by pixel from every lattice
sample within ``_CLIMB_DB`` of the strongest.  Every pixel it images
reads as in the full image, and on the presets and perfbench's reduced
scene1 seeds it found the full image's strongest pixel in every call
measured.  Scans and images read the trace's rows from
``signal.AnalyticRows.of``, built once per trace: the band spectra for
the scans, the upsampled rows for the images.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .annihil import (
    _track_delays,
    cross_range_cell,
    locate_stationary,
    remove_stationary,
    tt_forward,
    tt_inverse,
)
from .geom import C_LIGHT, ViewFrame, compose_velocity, delta_tau_moving
from .imaging import (
    ImageGrid,
    _compensation,
    _local_maxima,
    _location_grid,
    _peak_positions,
    _refine_peaks,
    _warn_missed,
    image_compensated,
    image_points,
)
from .kernels import _in_blocks
from .rpca import (
    SeparationResult,
    WindowLayout,
    _separate_spans,
    choose_window,
    separate_windowed,
)
from .signal import AnalyticRows, TraceMatrix, _require_compressed, _widen_gate

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
    # Re-exported: perfbench's tracer wraps it under this module's name.
    "image_compensated",
]


def trial_velocity(frame: ViewFrame, u) -> np.ndarray:
    """In-plane trial velocities with range speeds u and zero cross speed.

    The vector u * (b_m, 0) / |b_m|^2 projects onto the line of sight
    with speed exactly u, so straightening with it cancels a mover's
    range-speed slope regardless of the mover's cross motion.  The
    result has u's shape plus a last axis of 3.
    """
    b_m = frame.b_m
    scale = float(b_m @ b_m)
    if scale == 0.0:
        raise ValueError("line of sight is vertical; range speed is unobservable")
    u = np.asarray(u, dtype=float)
    return np.stack([u * b_m[0] / scale, u * b_m[1] / scale, np.zeros_like(u)], -1)


#: Trial-speed steps of the range-speed and cross-speed scans, m/s.
_U_STEP = 0.25
_U_PERP_STEP = 0.5


def _default_speed_grid(trace: TraceMatrix, step: float) -> np.ndarray:
    top = trace.traj.speed
    return np.arange(-top, top + 0.5 * step, step)


#: Trials whose rows one FFT call shifts and one score call scores
#: together in a scan.  Each thread holds about two batches of shifted
#: rows at a time (the FFT's input and output), 1.2 MB each on
#: perfbench's reduced scene1 at 4 trials.  On its mover-focus workload,
#: 8 trials ran no faster than 4 and raised the peak memory about 9%
#: over 2 trials, against about 3% at 4.
_SCAN_BATCH = 4


def _scan(trace: TraceMatrix, rho, velocities, score) -> np.ndarray:
    """``score`` of the analytic valid rows straightened along each
    track rho + s u_vec, for u_vec in ``velocities``.

    The trials run in batches of ``_SCAN_BATCH`` on
    ``kernels._in_blocks`` (see ``sarsep.kernels``), with one
    ``delta_tau_moving`` call, one phase ramp and one FFT call per
    batch.  ``score`` maps the batch's shifted rows, shape (trials,
    rows, samples), to one value per trial, and reduces each trial's
    rows in the same order whatever the batch holds, so the curve does
    not depend on the batches.
    """
    _require_compressed(trace, "a speed scan")
    start, stop = trace.valid_rows
    s = trace.s_times[start:stop]
    rows = AnalyticRows.of(trace)
    velocities = np.reshape(velocities, (-1, 1, 3))

    def part(a, b):
        delays = delta_tau_moving(trace.traj, s, rho, velocities[a:b], trace.rho_o)
        return score(rows.shifted(delays))

    return np.concatenate(
        _in_blocks(part, len(velocities), _SCAN_BATCH) or [np.empty(0)]
    )


def g_curve(
    trace: TraceMatrix, u_grid: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Row-alignment score g(u) over a grid of trial range speeds.

    The rows are straightened at the scene reference with the trial
    velocities ``trial_velocity(frame, u_grid)``, one call for the grid,
    and for each trial u the magnitudes are summed across rows; g(u) is
    the maximum of that fast-time profile.  A mover with range speed u0
    aligns (and peaks) near u = u0.  The default grid spans +-the
    platform speed in steps of 0.25 m/s.
    """
    if u_grid is None:
        u_grid = _default_speed_grid(trace, _U_STEP)
    u_grid = np.asarray(u_grid, dtype=float)
    velocities = trial_velocity(trace.frame, u_grid)
    return u_grid, _scan(
        trace, trace.rho_o, velocities, lambda z: np.abs(z).sum(axis=-2).max(axis=-1)
    )


#: A detected g(u) peak reaches this multiple of the curve median.
_PEAK_HEIGHT = 3.0


def find_speed_peaks(
    u_grid: np.ndarray, values: np.ndarray, height_factor: float = _PEAK_HEIGHT
) -> list[tuple[float, float]]:
    """Significant local maxima of a g(u) curve, strongest first.

    The rule is ``imaging._local_maxima``, the one that finds points in
    the preliminary image.  A peak must reach ``height_factor`` times the
    curve median, which rejects the clutter plateau when no mover is
    present.  Peak positions are refined by a parabolic fit through the
    neighbors.  ``height_factor`` must be finite and non-negative.
    """
    if not (np.isfinite(height_factor) and height_factor >= 0.0):
        raise ValueError(
            f"height_factor must be finite and non-negative, got {height_factor}"
        )
    values = np.asarray(values, dtype=float)
    (order,) = _local_maxima(values, height_factor * float(np.median(values)))
    step = u_grid[1] - u_grid[0] if u_grid.size > 1 else 0.0
    u = _refine_peaks(values, (order,), (u_grid,), (step,))[:, 0]
    return list(zip(u.tolist(), values[order].tolist()))


#: Coarse-to-fine scans (``_scan_extremum``) evaluate every
#: ``factor``-th lattice point, at most ``_COARSE_FACTOR``, then the
#: points within +-``factor`` of the ``_COARSE_CANDIDATES`` best coarse
#: extrema.  Factor 1 is the full scan, and is used on a lattice no
#: longer than those fine windows.
_COARSE_FACTOR = 4
_COARSE_CANDIDATES = 3

#: Spread of the straightened track's delays across the valid rows, in
#: 1/B units, at which each scan's curve falls half way from its
#: extremum: the half width at half height, in lattice steps, times the
#: lattice's largest spread change per step.  For g, a Gaussian pulse
#: envelope of standard deviation 1/B averaged over a linear spread
#: halves at 5/B; its peaks measured 4.2-5.1/B on perfbench's reduced
#: scene1 (seeds 0, 11, 73).  The g_perp dips measured 0.51-0.71/B there
#: and on the near-range test mover.
_HALF_SPREAD = {"g": 4.0, "g_perp": 0.5}


def _coarse_factor(trace: TraceMatrix, rho, velocities, kind: str) -> int:
    """Coarse step, in lattice steps, of a ``kind`` scan straightened at
    ``rho`` with the lattice's trial ``velocities``, shape (trials, 3).

    From one lattice step to the next, measured at every step, the
    spread of the straightened track's delays across the valid rows
    changes by at most ``cells`` resolution cells (1/B).  The curve
    falls half way at a spread of ``_HALF_SPREAD`` cells, so its peaks
    are at least 2 * ``_HALF_SPREAD`` / ``cells`` steps wide at half
    height, and a coarse step no wider leaves a coarse sample above half
    height on every peak.  The step is capped at ``_COARSE_FACTOR``; a
    lattice of one point is scanned whole.
    """
    if len(velocities) < 2:
        return 1
    s = trace.s_times[slice(*trace.valid_rows)]
    delays = delta_tau_moving(trace.traj, s, rho, velocities[:, None], trace.rho_o)
    spread = float(np.ptp(np.diff(delays, axis=0), axis=-1).max())
    cells = spread * trace.bandwidth
    width = 2.0 * _HALF_SPREAD[kind]
    if cells * _COARSE_FACTOR <= width:
        return _COARSE_FACTOR
    return max(1, int(width / cells))


def _lattice_maxima(score: np.ndarray, done: np.ndarray, border: bool) -> np.ndarray:
    """Indices of the local maxima of ``score`` among its evaluated
    samples (``done``), strongest first, by ``imaging._local_maxima``'s
    rule.

    The rule is applied to the dense ranks of the evaluated samples,
    counted from 1, which keep their order and ties whatever their sign;
    the samples not evaluated read 0, below every evaluated one.  With
    ``border`` each end of the lattice may be a maximum, compared with
    its one neighbour.
    """
    ranks = np.zeros(score.size)
    ranks[done] = np.unique(score[done], return_inverse=True)[1] + 1.0
    if border:
        return _local_maxima(np.pad(ranks, 1), 0.0)[0] - 1
    return _local_maxima(ranks, 0.0)[0]


def _scan_extremum(
    curve, grid, kind, factor, sign=1.0, step=None, height_factor=None
):
    """Strongest extremum of a scan over the lattice ``grid``, coarse to fine.

    ``curve(speeds)`` returns the scan's values at some lattice points;
    ``sign`` is +1 to find a maximum and -1 a minimum.  The search
    evaluates every ``factor``-th lattice point (``_coarse_factor``) and
    the last one; then, in one call, the missing points within
    +-``factor`` of the ``_COARSE_CANDIDATES`` strongest extrema of that
    coarse curve; then the missing neighbours of the strongest extremum
    among all evaluated points, until it has none.  The candidates are
    ranked only after the fine pass: a coarse sample may sit on the
    flank of the strongest peak.  A lattice no longer than the fine
    windows is evaluated whole, in one call (factor 1).  Extrema follow
    ``imaging._local_maxima``'s rule (ties go to the last index) and may
    sit on either end of the lattice, unless ``height_factor`` is given:
    then, as in ``find_speed_peaks``, the coarse candidates and the
    extremum lie off the ends, and the extremum must reach
    ``height_factor`` times the median of the coarse curve.  A trial's
    value does not depend on the other trials of its call, so each
    evaluated point reads as in the full scan.

    Returns (position, value, (speeds, values), record): the extremum
    refined by ``imaging._refine_peaks`` with ``step`` (default: the
    grid's first spacing) and its value, both None when there is none;
    the evaluated points in grid order; and the scan's record (``kind``,
    ``trials``, ``coarse_factor``, ``fine_windows`` in grid units,
    ``on_border``, true when the extremum is an end of the lattice).
    """
    n = grid.size
    if n <= _COARSE_CANDIDATES * (2 * factor + 1):
        factor = 1
    values = np.zeros(n)
    done = np.zeros(n, dtype=bool)

    def evaluate(index):
        index = np.unique(np.clip(index, 0, n - 1))
        index = index[~done[index]]
        if index.size:
            values[index] = curve(grid[index])
            done[index] = True
        return index.size

    coarse = np.unique(np.append(np.arange(0, n, factor), n - 1))
    evaluate(coarse)
    border = height_factor is None
    windows = []
    if factor > 1:
        top = _lattice_maxima(sign * values[coarse], done[coarse], border)
        windows = [
            (max(c - factor, 0), min(c + factor, n - 1))
            for c in coarse[top[:_COARSE_CANDIDATES]]
        ]
    if windows:
        evaluate(np.concatenate([np.arange(a, b + 1) for a, b in windows]))
    while True:
        peaks = _lattice_maxima(sign * values, done, border)
        if not peaks.size or not evaluate(peaks[0] + np.array([-1, 1])):
            break
    best = int(peaks[0]) if peaks.size else None
    if best is not None and height_factor is not None:
        floor = height_factor * float(np.median(values[coarse]))
        if not (values[best] >= floor and values[best] > 0.0):
            best = None
    record = {
        "kind": kind,
        "trials": int(done.sum()),
        "coarse_factor": factor,
        "fine_windows": [[float(grid[a]), float(grid[b])] for a, b in windows],
        "on_border": best in (0, n - 1),
    }
    evaluated = (grid[done], values[done])
    if best is None:
        return None, None, evaluated, record
    if step is None:
        step = grid[1] - grid[0] if n > 1 else 0.0
    position = _refine_peaks(sign * values, (best,), (grid,), (step,))[0, 0]
    return float(position), float(values[best]), evaluated, record


def g_perp_curve(
    trace: TraceMatrix,
    rho_e,
    u: float,
    u_perp_grid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Misalignment score over trial cross-range speeds at fixed u.

    The trace is straightened at rho_e with the composed trial
    velocities, built for the whole grid in one ``compose_velocity``
    call; the remaining slow-time curvature is scored by the total
    magnitude of the second slow-time difference, which is smallest
    when the trial matches the mover's cross-range speed.  The default
    grid spans +-the platform speed in steps of 0.5 m/s.
    """
    if u_perp_grid is None:
        u_perp_grid = _default_speed_grid(trace, _U_PERP_STEP)
    u_perp_grid = np.asarray(u_perp_grid, dtype=float)
    velocities = compose_velocity(trace.frame, u, u_perp_grid)
    return u_perp_grid, _scan(
        trace,
        rho_e,
        velocities,
        lambda z: np.abs(z[:, 2:] - 2.0 * z[:, 1:-1] + z[:, :-2]).sum(axis=(-2, -1)),
    )


def estimate_cross_speed(
    trace: TraceMatrix,
    rho_e,
    u: float,
    u_perp_grid: np.ndarray | None = None,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Cross-range speed minimizing the g_perp misalignment score.

    The grid (default as in ``g_perp_curve``) is searched coarse to fine
    (``_scan_extremum``); the curve returned holds the evaluated points.
    """
    u_perp, curve, _ = _cross_speed(trace, rho_e, u, u_perp_grid)
    return u_perp, curve


def _cross_speed(trace, rho_e, u, u_perp_grid=None):
    """``estimate_cross_speed``'s search: (u_perp, curve, scan record)."""
    if u_perp_grid is None:
        u_perp_grid = _default_speed_grid(trace, _U_PERP_STEP)
    grid = np.asarray(u_perp_grid, dtype=float)
    velocities = compose_velocity(trace.frame, u, grid)
    factor = _coarse_factor(trace, rho_e, velocities, "g_perp")
    u_perp, _, curve, record = _scan_extremum(
        lambda trial: g_perp_curve(trace, rho_e, u, trial)[1],
        grid,
        "g_perp",
        factor,
        sign=-1.0,
    )
    return u_perp, curve, record


#: Lattice samples of the location search within this many dB of the
#: strongest one start a climb (``_search_box``): a lattice sample may
#: sit on the flank of the lobe that holds the box's maximum.  Over the
#: 48 searches of ``separate_movers`` on perfbench's reduced scene1
#: (seeds 0, 11-13, 43, 73), climbs from the strongest sample alone
#: picked another pixel than the full image 9 times, climbs from within
#: 3 dB once, and climbs from within 6 dB never.
_CLIMB_DB = 6.0


def _search_steps(trace: TraceMatrix, spacing: float) -> tuple[int, int]:
    """Pixel steps (y, x) of the location search's lattice, each the
    main lobe's -3 dB width along its axis in pixels, rounded down, and
    at least 1.

    The lobe is 2 sqrt(ln 2) c/(2B) / |b_m| wide in ground range, the
    range-compressed envelope's -3 dB width, and
    ``annihil.cross_range_cell`` wide in cross range.  Where ground
    range lies along x (or y) the axes take those widths; otherwise both
    take the smaller one.  On the presets this is 2 px along x (2.4 px
    wide) and 4 px along y (4.8 px); on perfbench's reduced scene1 the
    y step is 6 px.
    """
    b_m = trace.frame.b_m
    ground = 2.0 * np.sqrt(np.log(2.0)) * C_LIGHT / (2.0 * trace.bandwidth)
    ground /= float(np.hypot(*b_m))
    cross = cross_range_cell(trace)
    if b_m[1] == 0.0:
        widths = (cross, ground)
    elif b_m[0] == 0.0:
        widths = (ground, cross)
    else:
        widths = (min(ground, cross),) * 2
    return tuple(max(1, int(w / spacing)) for w in widths)


def _search_box(trace: TraceMatrix, grid: ImageGrid, u_vec):
    """The strongest pixel of ``image_compensated(trace, grid, u_vec)``,
    imaging only part of the grid.

    The lattice of every ``_search_steps`` pixel along y and x, plus the
    last row and column, is imaged in one ``imaging.image_points`` call.
    From every lattice sample within ``_CLIMB_DB`` of the strongest, a
    climb moves to the strongest of its 8 neighbours while that one is
    stronger; each round images the climbs' missing neighbours in one
    call.  Then, while the strongest pixel imaged (the first in grid
    order, as ``np.argmax``) has a neighbour not imaged, its neighbours
    are imaged and it climbs again.  A pixel's value does not depend on
    the other pixels of its call, so each reads as in the full image.

    Returns (position, value, floor, missed, imaged): the pixel refined
    as ``peak_extract`` refines it, its envelope value, the median of
    the lattice samples, the imaged pixels' out-of-gate (pixel, pulse)
    samples and the mask of the pixels imaged, shaped as the grid.
    Raises when every imaged pixel is zero.
    """
    ny, nx = grid.shape
    x_axis, y_axis = grid.x_axis, grid.y_axis
    env = np.zeros((ny, nx))
    done = np.zeros((ny, nx), dtype=bool)
    missed = 0

    def evaluate(iy, ix):
        nonlocal missed
        flat = np.unique(np.ravel_multi_index((iy, ix), (ny, nx)))
        flat = flat[~done.flat[flat]]
        if not flat.size:
            return
        iy, ix = np.unravel_index(flat, (ny, nx))
        points = np.column_stack((x_axis[ix], y_axis[iy], np.zeros(flat.size)))
        values, count = image_points(trace, points, u_vec)
        env.flat[flat] = np.abs(values)
        done.flat[flat] = True
        missed += count

    def around(iy, ix):
        """The 3 x 3 neighbourhoods of pixels (iy, ix), clipped to the
        grid: two (pixels, 9) index arrays."""
        dy, dx = np.divmod(np.arange(9), 3)
        return (
            np.clip(iy[:, None] + dy - 1, 0, ny - 1),
            np.clip(ix[:, None] + dx - 1, 0, nx - 1),
        )

    sy, sx = _search_steps(trace, grid.spacing)
    rows = np.unique(np.append(np.arange(0, ny, sy), ny - 1))
    cols = np.unique(np.append(np.arange(0, nx, sx), nx - 1))
    iy, ix = (a.ravel() for a in np.meshgrid(rows, cols, indexing="ij"))
    evaluate(iy, ix)
    lattice = env[iy, ix]
    floor = float(np.median(lattice))
    keep = lattice >= lattice.max() * 10.0 ** (-_CLIMB_DB / 20.0)
    iy, ix = iy[keep], ix[keep]
    while True:
        while iy.size:
            near_y, near_x = around(iy, ix)
            evaluate(near_y, near_x)
            pick = (np.arange(iy.size), np.argmax(env[near_y, near_x], axis=1))
            to_y, to_x = near_y[pick], near_x[pick]
            up = env[to_y, to_x] > env[iy, ix]
            flat = np.ravel_multi_index((to_y[up], to_x[up]), (ny, nx))
            iy, ix = np.unravel_index(np.unique(flat), (ny, nx))
        flat = int(np.argmax(np.where(done, env, -1.0)))
        iy, ix = (np.atleast_1d(i) for i in np.unravel_index(flat, (ny, nx)))
        if done[around(iy, ix)].all():
            break
    top = (iy[0], ix[0])
    value = float(env[top])
    if value <= 0.0:
        raise ValueError("image envelope is zero everywhere")
    position = _peak_positions(env, grid, *top)[0]
    return position, value, floor, missed, done


def estimate_location(trace: TraceMatrix, u_vec, extent: float = 80.0) -> np.ndarray:
    """Mover location from the peak of a motion-compensated image.

    The image covers a square box of side ``extent`` around the
    reference point at c/2B spacing, with B the trace's bandwidth; the
    location is its strongest pixel, refined as ``imaging.peak_extract``
    refines it.  The box is searched coarse to fine (``_search_box``):
    a lattice one main lobe apart, then climbs to the strongest pixel
    from the lattice's strongest samples.  That images 9-16% of the
    box's pixels on perfbench's reduced scene1 and 13-14% on the
    presets.  The pixels come from ``imaging.image_points``, whose rows
    the trace builds once (``signal.AnalyticRows.of``), and each reads
    as in the full image.  Warns, like ``imaging.image_compensated``,
    when imaged pixels sample outside the gate, with the count of the
    imaged pixels' samples.  Warns when the peak stands less than 3 dB
    above the median of the lattice samples, a sign that the
    compensation velocity is wrong or the trace holds no localized
    scatterer.
    """
    u_vec = _compensation(u_vec)
    grid = _location_grid(trace, extent)
    position, peak_value, floor, missed, _ = _search_box(trace, grid, u_vec)
    _warn_missed(missed, stacklevel=2)
    if floor > 0.0:
        contrast_db = 20.0 * np.log10(peak_value / floor)
        if contrast_db < 3.0:
            warnings.warn(
                f"focus peak only {contrast_db:.2f} dB above the median "
                "lattice envelope; location estimate is unreliable",
                RuntimeWarning,
                stacklevel=2,
            )
    return position


@dataclass(frozen=True)
class VelocityEstimate:
    """Estimated mover state: speeds, location, and the frame they refer to.

    ``u`` and ``u_perp`` are the range and cross-range speeds in
    ``frame``; ``u_vec`` is composed from them at construction, so the
    velocity vector always agrees with the stated speeds.
    """

    u: float
    u_perp: float
    rho: np.ndarray
    g_score: float
    frame: ViewFrame
    u_vec: np.ndarray = field(init=False)

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        if rho.shape != (3,):
            raise ValueError("rho must be a 3-vector")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(
            self, "u_vec", compose_velocity(self.frame, self.u, self.u_perp)
        )

    def to_dict(self) -> dict:
        return {
            "u_meters_per_second": self.u,
            "u_perp_meters_per_second": self.u_perp,
            "u_vec_meters_per_second": self.u_vec.tolist(),
            "rho_meters": self.rho.tolist(),
            "g_score": self.g_score,
        }


def estimate_motion(
    trace: TraceMatrix,
    u: float,
    g_score: float,
    u_vec=None,
    rho=None,
    u_perp_grid: np.ndarray | None = None,
    extent: float = 80.0,
) -> tuple[VelocityEstimate, list[dict]]:
    """One mover's state at range speed u: locate, cross speed, relocate.

    The mover is located in an image compensated with ``u_vec``
    (default ``trial_velocity(frame, u)``), its cross-range speed is
    scanned at that location, and it is located again at the composed
    velocity.  A given ``rho`` is kept and skips both images.

    Returns the estimate and the ``_scan_extremum`` records of the scans
    it ran, in order: one, the cross-speed search (``g_perp``).
    """
    frame = trace.frame
    located = rho is None
    if located:
        first = trial_velocity(frame, u) if u_vec is None else u_vec
        rho = estimate_location(trace, first, extent=extent)
    u_perp, _, record = _cross_speed(trace, rho, u, u_perp_grid)
    if located:
        rho = estimate_location(
            trace, compose_velocity(frame, u, u_perp), extent=extent
        )
    est = VelocityEstimate(u=u, u_perp=u_perp, rho=rho, g_score=g_score, frame=frame)
    return est, [record]


@dataclass(frozen=True)
class MoverSeparation:
    """Output of the full detection pipeline.

    ``low`` holds the removed echoes of the located stationary points,
    or the low-rank part of the windowed split that stands in for the
    removal; ``movers[i]`` is the trace attributed to ``estimates[i]``;
    ``residual`` is what remains after peeling every mover.
    ``diagnostics["windows"]`` holds the per-window solver records of
    each split, in order: the stand-in split's windows, if it ran, then
    one record per peel, whose ``columns`` give the peel's window in
    gate coordinates.  ``diagnostics["feasibility"]`` is the worst
    split's feasibility and ``diagnostics["max_shift_frac"]`` the
    largest straightening shift of a peel as a fraction of the gate.
    ``diagnostics["stationary_candidates"]`` counts the stationary points
    ``annihil.locate_stationary`` listed, 0 when the stand-in split ran;
    a count of ``annihil._MAX_CANDIDATES`` means that cap may have cut
    the list.
    ``diagnostics["g_curves"]`` holds each round's detection curve as
    (u_grid, values) at the lattice points its coarse-to-fine scan
    evaluated, sorted by u.  ``diagnostics["scans"]`` holds one
    ``_scan_extremum`` record per scan, in order: per round the
    detection (``g``), the cross-speed search of ``estimate_motion`` on
    the remainder (``g_perp``), then, after the peel, the range-speed
    refinement (``g_refine``) and the cross-speed search of
    ``estimate_motion`` on the peeled trace (``g_perp``).
    ``low``, the movers and ``residual`` sum to the input.
    """

    low: TraceMatrix
    movers: tuple[TraceMatrix, ...]
    estimates: tuple[VelocityEstimate, ...]
    residual: TraceMatrix
    diagnostics: dict = field(default_factory=dict)


def _detect(trace: TraceMatrix):
    """The detection's search for the strongest g(u) peak on the default
    lattice: (u, score, curve, scan record), u and score None when no
    interior peak reaches ``_PEAK_HEIGHT`` times the coarse curve's
    median."""
    grid = _default_speed_grid(trace, _U_STEP)
    factor = _coarse_factor(trace, trace.rho_o, trial_velocity(trace.frame, grid), "g")
    return _scan_extremum(
        lambda trial: g_curve(trace, trial)[1],
        grid,
        "g",
        factor,
        height_factor=_PEAK_HEIGHT,
    )


def _refine_speed(trace: TraceMatrix, u: float):
    """Re-peak g(u) on a grid of +-2 m/s around a prior estimate, in one
    full scan: (u, score, scan record)."""
    grid = np.arange(u - 2.0, u + 2.0 + 0.5 * _U_STEP, _U_STEP)
    u, score, _, record = _scan_extremum(
        lambda trial: g_curve(trace, trial)[1], grid, "g_refine", 1, step=_U_STEP
    )
    return u, score, record


def _peel_span(trace: TraceMatrix) -> tuple[int, int]:
    """Columns of the peel's one window, in gate coordinates.

    The window has ``rpca.choose_window``'s default length (16/B).  It is
    centred on the column nearest differential delay t = 0, where a
    straightened mover sits, and moved inward to lie inside the gate; a
    gate no longer than one window is taken whole.
    """
    length = choose_window(trace.m + 1, trace.bandwidth, trace.axis.dt).length
    centre = int(np.argmin(np.abs(trace.t_times)))
    start = min(max(centre - length // 2, 0), trace.m + 1 - length)
    return start, start + length


def _peel(
    trace: TraceMatrix, scan: VelocityEstimate
) -> tuple[TraceMatrix, SeparationResult, float]:
    """The trace of the mover at ``scan``, the split it came from, and
    the straightening's largest shift as a fraction of the gate.

    The trace is straightened along the mover's track and one window
    around t = 0 (``_peel_span``) is split by principal component
    pursuit.  Where the straightening would read the window from beyond
    the gate, the gate is first widened with zeros by that margin
    (``signal._widen_gate``).  The split's low-rank part, zero outside
    the window, is the straightened mover; it is taken back to scene
    coordinates and cropped to the trace's gate.  The split's window
    record gives the window's columns in the trace's gate.
    """
    delays = _track_delays(trace, scan.rho, scan.u_vec)
    a, b = _peel_span(trace)
    reach = delays[slice(*trace.valid_rows)] / trace.axis.dt
    wide = _widen_gate(trace, max(-a - reach.min(), b - 1 + reach.max() - trace.m))
    offset = (wide.m - trace.m) // 2
    straightened = tt_forward(wide, scan.rho, scan.u_vec)
    split = _separate_spans(
        straightened, WindowLayout(b - a, 0), [(a + offset, b + offset)]
    )
    (window,) = split.diagnostics
    window["columns"] = [a, b]
    mover = tt_inverse(split.low, scan.rho, scan.u_vec)
    gate = np.ascontiguousarray(mover.data[:, offset : offset + trace.m + 1])
    shift_frac = float(np.max(np.abs(delays))) / (trace.m * trace.axis.dt)
    return mover.replace(data=gate, axis=trace.axis), split, shift_frac


def separate_movers(
    trace: TraceMatrix,
    max_movers: int = 2,
    extent: float = 80.0,
) -> MoverSeparation:
    """Detect, characterize, and peel movers from a mixed trace.

    The stationary scene is removed first: stationary points are located
    in a preliminary image over a box of side ``extent`` and their echoes
    taken out by ``annihil.remove_stationary``.  Each round then scans
    the remainder for the strongest range-speed peak, which must reach
    3 times the median of the scan's coarse curve, locates the mover,
    estimates its cross-range speed, and peels its trace: the remainder
    is straightened along the mover's track, which brings the mover to
    t = 0, and one window of ``rpca.choose_window``'s length around
    t = 0 is split by principal component pursuit (the whole gate, if it
    is no longer than one window).  Where the straightening would read
    the window from beyond the gate, the gate is widened with zeros
    first, so it never reads around the circle.  The low-rank part of
    that window is the straightened mover; the sparse part holds
    whatever clutter the removal missed, and the columns outside the
    window stay in the remainder unchanged.  No windowed split runs
    between the removal and the peels: with the stationary echoes gone
    it would only move mover energy into its low-rank part.
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
    # No later stage reads the mixture's rows, and the removal's peak
    # need not hold them.
    AnalyticRows.release()
    splits: list[list] = []
    feasibility = max_shift_frac = 0.0
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
    scans: list[dict] = []
    for _ in range(max_movers):
        u, score, curve, record = _detect(residual)
        g_curves.append(curve)
        scans.append(record)
        if u is None:
            break
        scan, records = estimate_motion(residual, u, score, extent=extent)
        scans += records
        # The remainder's rows are not read again; keep them off the
        # peel's peak.
        AnalyticRows.release()
        mover, peel, shift_frac = _peel(residual, scan)
        splits.append(peel.diagnostics)
        feasibility = max(feasibility, peel.feasibility)
        max_shift_frac = max(max_shift_frac, shift_frac)
        residual = residual.replace(data=residual.data - mover.data)
        # Refine on the peeled trace: the other movers are gone, so the
        # curves peak where this mover actually is.
        u, score, record = _refine_speed(mover, u)
        scans.append(record)
        estimate, records = estimate_motion(
            mover, u, score, u_vec=scan.u_vec, extent=extent
        )
        scans += records
        movers.append(mover)
        estimates.append(estimate)
    return MoverSeparation(
        low=low,
        movers=tuple(movers),
        estimates=tuple(estimates),
        residual=residual,
        diagnostics={
            "stationary_candidates": len(points),
            "windows": splits,
            "g_curves": g_curves,
            "scans": scans,
            "feasibility": feasibility,
            "max_shift_frac": max_shift_frac,
        },
    )
