"""Travel-time-transform annihilation filters and stationary-echo removal.

The forward transform straightens the trace of a hypothesized target
track rho_e + s u_e so it no longer depends on slow time; a slow-time
difference then removes it, and the inverse transform returns to the
original coordinates.  Composing stages removes several targets one by
one.  ``annihilate`` composes its stages on the row spectra: the
slow-time difference commutes with the per-row FFT and consecutive
shifts add their delays, so a plan costs one FFT round trip and one
phase ramp per stage.  It runs in place on one array of the valid rows'
spectra, in blocks of rows (see ``sarsep.kernels``).  The slow-time
difference of the complex spectra is taken on their float64 view and
multiplied by 1/ds, which equals numpy's complex division by ds bit for
bit, so the output does not depend on the block size.

``locate_stationary`` and ``remove_stationary`` use the same
straightening to take out the echoes of stationary points found in a
preliminary image: at each point the straightened echo is the same in
every row, so its per-sample median over pulses estimates it while
movers, which cross the point's delay in a few rows only, pass through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .geom import (
    C_LIGHT,
    Aperture,
    Trajectory,
    delta_tau_moving,
    make_frame,
)
from .imaging import (
    _local_maxima,
    _location_grid,
    _peak_positions,
    image_points,
)
from .scene import Target
from .signal import (
    TraceMatrix,
    _require_compressed,
    _shift_spectra,
    fast_time_shift,
    next_fast_odd,
    phase_ramp,
)

__all__ = [
    "AnnihilationStage",
    "AnnihilationPlan",
    "AnnihilationFactorReport",
    "tt_forward",
    "tt_inverse",
    "slow_diff",
    "annihilate",
    "leading_factor",
    "predict_annihilation_factor",
    "energy_ratio_db",
    "REMOVAL_HALF_WINDOW",
    "REMOVAL_SWEEPS",
    "REMOVAL_FLOOR_DB",
    "REFINE_SPAN",
    "StationaryRemoval",
    "cross_range_cell",
    "locate_stationary",
    "remove_stationary",
]

#: Half-width of the fast-time window that stationary-echo removal edits
#: around each point's delay, in 1/bandwidth units.  The pulse envelope
#: is down 39 dB there and holds all but 2e-5 of its energy inside.
REMOVAL_HALF_WINDOW = 3.0

#: Passes of stationary-echo removal over the located points.
REMOVAL_SWEEPS = 3

#: Image peaks, and removed echoes, this far below the strongest are
#: not taken for stationary points.
REMOVAL_FLOOR_DB = -20.0

#: Half-width of the search that refines a point's cross-range
#: position, in cross-range cells.  Image peaks sit within half a c/2B
#: pixel plus a sidelobe bias of about a tenth of a cell.
REFINE_SPAN = 0.25

#: Most image peaks taken as stationary-point candidates.
_MAX_CANDIDATES = 64

_ZERO3 = np.zeros(3)


def _track_delays(trace: TraceMatrix, rho_e, u_vec) -> np.ndarray:
    u_vec = _ZERO3 if u_vec is None else np.asarray(u_vec, dtype=float)
    return delta_tau_moving(trace.traj, trace.s_times, rho_e, u_vec, trace.rho_o)


def tt_forward(trace: TraceMatrix, rho_e, u_vec=None) -> TraceMatrix:
    """Straighten the trace of the track rho_e + s u_vec.

    Row j is advanced by the track's differential delay at s_j, so an
    echo that follows the track exactly becomes independent of slow
    time.  With rho_e = rho_o and zero velocity this is the identity.
    """
    _require_compressed(trace, "straightening")
    out = fast_time_shift(trace, _track_delays(trace, rho_e, u_vec))
    return out.replace(tag="transformed")


def tt_inverse(trace: TraceMatrix, rho_e, u_vec=None) -> TraceMatrix:
    """Exact inverse of ``tt_forward`` for the same track."""
    _require_compressed(trace, "straightening")
    out = fast_time_shift(trace, -_track_delays(trace, rho_e, u_vec))
    return out.replace(tag="range-compressed")


def _row_difference(d: np.ndarray, valid_rows, order: int, ds: float):
    """Slow-time difference of rows ``d``, real or complex, over
    ``valid_rows``, in place.

    Returns the new valid range; rows outside it keep stale values.
    Real rows are divided by ds (ds^2 for order 2).  Complex rows are
    differenced on their float64 view and multiplied by 1/ds (1/ds^2):
    numpy divides a complex a + bi by a real x + 0i as ((a + b 0)(1/x),
    (b - a 0)(1/x)), so the product equals its complex division bit for
    bit, in a sixth of the time (0.6 against 3.6 ms on example2's 117
    spectra).  A true division of the float view by ds would round
    differently.

    The new rows run in blocks of ``kernels._ROW_CHUNK`` on
    ``kernels._in_blocks``.  A block reads the old row after it and,
    for order 2, the one before it, which other blocks may already have
    rewritten, so those rows are copied before any block runs.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    start, stop = valid_rows
    if stop - start <= order:
        raise ValueError(
            f"need more than {order} valid rows, have {stop - start}"
        )
    lo, hi = start + order - 1, stop - 1
    complex_rows = np.iscomplexobj(d)
    rows = d.view(float) if complex_rows else d
    size = kernels._ROW_CHUNK
    firsts = np.arange(lo, hi, size)
    after = rows[np.minimum(firsts + size, hi)]
    before = rows[firsts - 1] if order == 2 else None

    def part(a, b):
        k, r0, r1 = a // size, lo + a, lo + b
        if order == 1:
            # In place: numpy reads each row before it is rewritten.
            np.subtract(rows[r0 + 1 : r1], rows[r0 : r1 - 1], out=rows[r0 : r1 - 1])
            np.subtract(after[k], rows[r1 - 1], out=rows[r1 - 1])
        else:
            old = np.concatenate((before[k : k + 1], rows[r0:r1], after[k : k + 1]))
            rows[r0:r1] = old[2:] - 2.0 * old[1:-1] + old[:-2]
        if complex_rows:
            rows[r0:r1] *= 1.0 / ds**order
        else:
            rows[r0:r1] /= ds**order

    kernels._in_blocks(part, hi - lo, size)
    return lo, hi


def slow_diff(trace: TraceMatrix, order: int = 1) -> TraceMatrix:
    """Slow-time difference along rows.

    Order 1 is the forward difference (x[j+1] - x[j]) / ds; order 2 the
    central second difference (x[j+1] - 2 x[j] + x[j-1]) / ds^2.  Rows
    that lose their neighbors are zeroed and dropped from
    ``valid_rows``.
    """
    data = trace.data.copy()
    start, stop = _row_difference(
        data, trace.valid_rows, order, trace.aperture.ds
    )
    data[:start] = 0.0
    data[stop:] = 0.0
    return trace.replace(data=data, valid_rows=(start, stop), tag="transformed")


@dataclass(frozen=True)
class AnnihilationStage:
    """One filter stage: straighten at (rho_e, u_vec), difference, undo."""

    rho_e: np.ndarray
    u_vec: np.ndarray = (0.0, 0.0, 0.0)
    order: int = 1

    def __post_init__(self):
        rho_e = np.asarray(self.rho_e, dtype=float)
        u_vec = np.asarray(self.u_vec, dtype=float)
        object.__setattr__(self, "rho_e", rho_e)
        object.__setattr__(self, "u_vec", u_vec)
        if rho_e.shape != (3,) or u_vec.shape != (3,):
            raise ValueError("rho_e and u_vec must be 3-vectors")
        if u_vec[2] != 0.0:
            raise ValueError("stage velocity must be in-plane")
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")

    def to_dict(self) -> dict:
        return {
            "rho_e_meters": list(map(float, self.rho_e)),
            "u_vec_meters_per_second": list(map(float, self.u_vec)),
            "order": self.order,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AnnihilationStage":
        return cls(
            rho_e=d["rho_e_meters"],
            u_vec=d.get("u_vec_meters_per_second", (0.0, 0.0, 0.0)),
            order=d.get("order", 1),
        )


@dataclass(frozen=True)
class AnnihilationPlan:
    """Ordered list of annihilation stages."""

    stages: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))

    def to_dict(self) -> dict:
        return {"stages": [s.to_dict() for s in self.stages]}

    @classmethod
    def from_dict(cls, d: dict) -> "AnnihilationPlan":
        return cls(stages=[AnnihilationStage.from_dict(s) for s in d["stages"]])

    @classmethod
    def for_points(cls, points) -> "AnnihilationPlan":
        """First-order stationary stages, one per point, in order."""
        return cls(stages=[AnnihilationStage(rho_e=p) for p in points])


def annihilate(trace: TraceMatrix, plan: AnnihilationPlan) -> TraceMatrix:
    """Apply each plan stage in order: straighten, difference, undo.

    The stages compose on the row spectra.  Each stage's straightening
    is the phase ramp of its track delays less those of the stage
    before, the difference is taken between complex spectra, and one
    ramp of the last stage's delays and one inverse FFT undo the last
    straightening.  This equals ``tt_inverse(slow_diff(tt_forward(.)))``
    stage by stage, since the slow-time difference commutes with the
    per-row FFT and consecutive shifts add.  The shifts are circular on
    the gate, and exact at any size (see ``sarsep.signal``).

    The work is done in place on one array of the valid rows' spectra:
    the first stage's FFT is written into it, each stage multiplies its
    phase ramps into it and differences it in place
    (``_row_difference``, with the reciprocal of ds), and the last
    ramp's inverse FFT is written straight into the output rows.  Each
    pass runs in blocks of rows (see ``sarsep.kernels``), so the only
    other temporaries are a block's phase ramp or difference per worker.
    """
    if not plan.stages:
        raise ValueError("annihilation plan has no stages")
    _require_compressed(trace, "annihilation")
    count, dt, ds = trace.axis.m + 1, trace.axis.dt, trace.aperture.ds
    valid = trace.valid_rows
    spectra = np.empty((trace.n + 1, count // 2 + 1), dtype=complex)
    applied = np.zeros(trace.n + 1)
    for k, stage in enumerate(plan.stages):
        delays = _track_delays(trace, stage.rho_e, stage.u_vec)
        start, stop = valid
        _shift_spectra(
            spectra[start:stop],
            (delays - applied)[start:stop],
            count,
            dt,
            rows=None if k else trace.data[start:stop],
        )
        applied = delays
        try:
            valid = _row_difference(spectra, valid, stage.order, ds)
        except ValueError as exc:
            raise ValueError(f"annihilation stage {k} failed: {exc}") from exc
    start, stop = valid
    data = np.zeros_like(trace.data)
    _shift_spectra(
        spectra[start:stop], -applied[start:stop], count, dt, out=data[start:stop]
    )
    return trace.replace(data=data, valid_rows=valid, tag="range-compressed")


def leading_factor(traj: Trajectory, rho_e, target: Target, s) -> np.ndarray:
    """Leading-order slope of the straightened trace of ``target``.

    Approximates d/ds [tau(s, rho(s)) - tau(s, rho_e)] by

        (2/c) [-u.m_e + (V t - u) . P_e (rho_e - rho) / L
               - s (2 V t - u) . P_e u / L]

    with m_e, P_e, and L taken at rho_e, t the flight tangent at s = 0,
    and u the target velocity.  Zero for a stationary target at rho_e.
    """
    s = np.asarray(s, dtype=float)
    frame = make_frame(traj, rho_e)
    u_vec = target.velocity
    drho = frame.projector @ (np.asarray(rho_e, dtype=float) - target.rho)
    vt = frame.speed * frame.t_hat
    const = -float(u_vec @ frame.m_hat) + float((vt - u_vec) @ drho) / frame.range_L
    slope = float((2.0 * vt - u_vec) @ (frame.projector @ u_vec)) / frame.range_L
    return (2.0 / C_LIGHT) * (const - s * slope)


@dataclass(frozen=True)
class AnnihilationFactorReport:
    """Finite-difference vs. leading-order annihilation factor.

    ``fd`` samples the exact derivative of the straightened delay by
    central differences on the interior slow-time grid; ``predicted``
    samples the leading-order formula there.  ``remainder_bound`` is the
    size of the neglected terms, a(|u_perp|/(cL) + V|drho|/(cL^2)).
    """

    s: np.ndarray
    fd: np.ndarray
    predicted: np.ndarray
    remainder_bound: float


def predict_annihilation_factor(
    traj: Trajectory, aperture: Aperture, target: Target, rho_e
) -> AnnihilationFactorReport:
    """Compare the exact straightened-trace slope with its leading order."""
    s = aperture.times
    rho_e = np.asarray(rho_e, dtype=float)
    f = delta_tau_moving(traj, s, target.rho, target.velocity, rho_e)
    fd = (f[2:] - f[:-2]) / (2.0 * aperture.ds)
    s_mid = s[1:-1]
    predicted = leading_factor(traj, rho_e, target, s_mid)
    frame = make_frame(traj, rho_e)
    length = traj.speed * aperture.n * aperture.ds
    u_perp = float(frame.t_hat @ (frame.projector @ target.velocity))
    drho = float(np.linalg.norm(target.rho - rho_e))
    remainder = length * (
        abs(u_perp) / (C_LIGHT * frame.range_L)
        + frame.speed * drho / (C_LIGHT * frame.range_L**2)
    )
    return AnnihilationFactorReport(
        s=s_mid, fd=fd, predicted=predicted, remainder_bound=remainder
    )


def energy_ratio_db(before: TraceMatrix, after: TraceMatrix) -> float:
    """Residual energy of ``after`` relative to ``before``, in dB.

    Both energies are taken over ``after``'s valid rows so boundary rows
    dropped by differencing do not skew the ratio.
    """
    start, stop = after.valid_rows
    e_before = float(np.sum(before.data[start:stop] ** 2))
    e_after = float(np.sum(after.data[start:stop] ** 2))
    if e_before == 0.0:
        raise ValueError("reference trace has zero energy on the valid rows")
    if e_after == 0.0:
        return -np.inf
    return 10.0 * np.log10(e_after / e_before)


def cross_range_cell(trace: TraceMatrix) -> float:
    """-3 dB cross-range width 0.886 lambda0 L / (2a) of a plain image.

    L is the range from the aperture center to the reference point and
    a the chord of the aperture; lambda0 is the trace's carrier
    wavelength.
    """
    s = trace.s_times
    ends = trace.traj.position(s[[0, -1]])
    chord = float(np.linalg.norm(ends[1] - ends[0]))
    range_L = trace.frame.range_L
    return 0.886 * (C_LIGHT / trace.nu0) * range_L / (2.0 * chord)


def locate_stationary(trace: TraceMatrix, extent: float = 80.0) -> np.ndarray:
    """Stationary-point candidates from the peaks of a preliminary image.

    The plain backprojection image over a square box of side ``extent``
    around the reference point, at c/2B spacing, is searched for up to
    64 local envelope maxima within ``REMOVAL_FLOOR_DB`` of the
    strongest.  Returns their positions, strongest first, shape (k, 3).
    Movers smear in this image, but sidelobes and ghosts of close
    targets may be listed; ``remove_stationary`` drops a candidate whose
    straightened rows hold no echo once the stronger ones are gone.
    Pixels whose delays leave the gate simply sum fewer samples.

    Returns no points when the cross-range cell (``cross_range_cell``)
    spans fewer than two pixels, as in wide-angle, near-range
    geometries: such an image misses or misplaces points by many cells,
    and an echo removed at the wrong place adds energy instead.
    """
    _require_compressed(trace, "locating stationary points")
    grid = _location_grid(trace, extent)
    if cross_range_cell(trace) < 2.0 * grid.spacing:
        return np.zeros((0, 3))
    values, _ = image_points(trace, grid.points())
    env = np.abs(values.reshape(grid.shape))
    # Local maxima only, so the shoulders of wide main lobes are not
    # listed as points of their own.
    floor = env.max() * 10.0 ** (REMOVAL_FLOOR_DB / 20.0)
    iy, ix = _local_maxima(env, floor)
    return _peak_positions(env, grid, iy[:_MAX_CANDIDATES], ix[:_MAX_CANDIDATES])


def _window_width(half: int) -> int:
    """FFT length of a point window of ``half`` samples per side."""
    return next_fast_odd(4 * half + 1)


class _PointWindow:
    """Valid rows straightened at one stationary point, over a short window.

    Row j is read on a padded block of columns around the point's delay
    d_j: the integer part of d_j is an index offset and only the
    sub-sample remainder is a spectral shift, so the block never wraps
    the shifted window.  ``padded`` holds the trace's rows with
    ``_window_width(half)`` zero columns on either side, so each block
    is a strided view at its row's offset; a block wholly outside the
    gate is read from a margin.  ``window(extra)`` returns the rows
    sampled at t + d_j + extra_j for |t| <= ``half`` samples;
    ``put(profile)`` moves such a profile back to d_j and returns its
    samples at ``index``, the (row, column) pairs of ``padded`` where
    the central window lies inside the gate.  The block's spectrum is
    kept, since refinement reads the window at many trial shifts.
    """

    def __init__(self, trace: TraceMatrix, padded: np.ndarray, rho, half: int):
        start, stop = trace.valid_rows
        dt = trace.axis.dt
        pos = (_track_delays(trace, rho, None)[start:stop] - trace.t_times[0]) / dt
        centers = np.rint(pos).astype(int)
        self.shifts = (pos - centers) * dt
        self.dt = dt
        self.width = _window_width(half)
        self.central = slice(self.width // 2 - half, self.width // 2 + half + 1)
        # Each block's first column in ``padded``.
        first = centers - self.width // 2 + self.width
        first = np.clip(first, 0, padded.shape[1] - self.width)
        blocks = np.lib.stride_tricks.sliding_window_view(
            padded[start:stop], self.width, axis=-1
        )
        self.spectra = np.fft.rfft(blocks[np.arange(stop - start), first], axis=-1)
        cols = centers[:, None] + np.arange(-half, half + 1)
        self.mask = (cols >= 0) & (cols <= trace.axis.m)
        rows = np.broadcast_to(np.arange(start, stop)[:, None], cols.shape)
        self.index = (rows[self.mask], cols[self.mask] + self.width)

    def _shifted(self, spectra: np.ndarray, delays: np.ndarray) -> np.ndarray:
        ramp = phase_ramp(delays, self.width, self.dt)
        return np.fft.irfft(spectra * ramp, n=self.width, axis=-1)[:, self.central]

    def window(self, extra=0.0) -> np.ndarray:
        return self._shifted(self.spectra, self.shifts + extra)

    def put(self, profile: np.ndarray) -> np.ndarray:
        padded = np.zeros(self.width)
        padded[self.central] = profile
        return self._shifted(np.fft.rfft(padded), -self.shifts)[self.mask]


@dataclass(frozen=True)
class StationaryRemoval:
    """Echoes of located stationary points split off a trace.

    ``stationary + rest`` equals the input; ``points`` holds the
    refined locations of the points whose echoes were removed.
    """

    stationary: TraceMatrix
    rest: TraceMatrix
    points: np.ndarray


def _median_rows(rows: np.ndarray) -> np.ndarray:
    """Per-sample median over the rows, equal to ``np.median(rows,
    axis=0)`` for finite rows.

    ``np.partition`` places the middle element (the two middle ones for
    an even count, averaged as ``np.median`` averages them) without the
    extra partition ``np.median`` makes for its NaN check.
    """
    half = rows.shape[0] // 2
    if rows.shape[0] % 2:
        return np.partition(rows, half, axis=0)[half]
    part = np.partition(rows, (half - 1, half), axis=0)
    return (part[half - 1] + part[half]) / 2


#: Golden-section fraction (3 - sqrt 5) / 2 of the bounded search.
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
#: Relative resolution in x of the bounded search.
_SQRT_EPS = math.sqrt(2.2e-16)
#: Evaluation cap of the bounded search.
_MAX_EVALUATIONS = 500


def _bounded_minimum(func, lo: float, hi: float, xatol: float):
    """Local minimum of ``func`` on [lo, hi]: (x, func(x), evaluations).

    Brent's search without derivatives (Brent, "Algorithms for
    Minimization without Derivatives", 1973, ch. 5; ``fmin`` of
    Forsythe, Malcolm and Moler, 1977): x is the best point so far, w
    the second best and v the previous w.  The vertex of the parabola
    through the three is the next trial where it lies inside the bracket
    [a, b] and moves x less than half the step before last; a
    golden-section step into the larger part of the bracket is taken
    otherwise.  No trial lies closer than tol1 to x.  The search stops
    when x is within about ``xatol`` of the bracket's middle, or after
    500 evaluations.  These are the constants, the step order and the
    tie rules of ``scipy.optimize.minimize_scalar(method="bounded")``,
    so both evaluate ``func`` at the same points and return the same x.
    """
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = func(x)
    count = 1
    step = previous = 0.0
    mid = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(x - mid) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(previous) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, previous = previous, step
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                step = p / q
                u = x + step
                if u - a < tol2 or b - u < tol2:
                    step = tol1 if mid >= x else -tol1
        if golden:
            previous = (a if x >= mid else b) - x
            step = _GOLDEN * previous
        size = max(abs(step), tol1)
        u = x + size if step >= 0.0 else x - size
        fu = func(u)
        count += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv = w, fw
            w, fw = x, fx
            x, fx = u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv = w, fw
                w, fw = u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        mid = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if count >= _MAX_EVALUATIONS:
            break
    return x, fx, count


def _refine_cross_range(trace, win: _PointWindow, origin, cross, span):
    """Point within +-span of ``origin`` along ``cross`` where the
    per-sample median fits the rows of ``win``, straightened at
    ``origin``, best (least absolute deviation)."""
    start, stop = trace.valid_rows
    base = _track_delays(trace, origin, None)[start:stop]

    def misfit(offset):
        delays = _track_delays(trace, origin + offset * cross, None)[start:stop]
        rows = win.window(delays - base)
        return float(np.abs(rows - _median_rows(rows)).sum())

    # Bounded Brent, not a sampled grid: a 9-point grid plus parabola or a
    # golden-section search at this tolerance lowered the mover
    # correlations of the scene1 pipeline (0.9964 -> 0.9944 / 0.9949).
    offset = _bounded_minimum(misfit, -span, span, 1e-2 * span)[0]
    return origin + offset * cross


def _split_off(trace: TraceMatrix, rest: np.ndarray, points) -> StationaryRemoval:
    """``trace`` split into its removed echoes, ``trace - rest``, and ``rest``."""
    return StationaryRemoval(
        stationary=trace.replace(
            data=trace.data - rest,
            tag="filtered",
            meta={**trace.meta, "part": "stationary"},
        ),
        rest=trace.replace(
            data=rest, tag="filtered", meta={**trace.meta, "part": "rest"}
        ),
        points=points,
    )


def remove_stationary(trace: TraceMatrix, points) -> StationaryRemoval:
    """Remove the echoes of stationary points at ``points``.

    For each point in turn, the rows are straightened at the point; the
    per-sample median over pulses within ``REMOVAL_HALF_WINDOW``/B of
    the point's delay estimates its echo, which is moved back along the
    point's delay locus and subtracted.  Before that the point is moved
    along cross-range, within ``REFINE_SPAN`` cross-range cells of where
    it was given, to where the median fits the straightened rows best
    (least absolute deviation, found by a bounded Brent search to 1% of
    the span, ``_bounded_minimum``): neighbors' sidelobes bias image
    peaks by about a tenth of a cell, which would leave a tilted residue
    the median cannot take out.  ``REMOVAL_SWEEPS`` sweeps run over the
    points; each adds a point's previous estimate back first, so later
    sweeps see every other point removed.

    Points are taken in the given order (strongest first).  On the first
    sweep a point whose median echo peaks more than
    ``REMOVAL_FLOOR_DB`` below the strongest one so far is dropped: a
    sidelobe or ghost of a point already removed.  Each point edits
    2 ``REMOVAL_HALF_WINDOW``/B of fast time per row.  The removed
    echoes are returned as ``stationary`` and the remainder as
    ``rest``; the two sum to the input.  With no points, ``stationary``
    is zero and ``rest`` is the input.
    """
    _require_compressed(trace, "stationary removal")
    given = np.asarray(points, dtype=float).reshape(-1, 3)
    if not len(given):
        return _split_off(trace, trace.data, given)
    points = given.copy()
    half = int(np.ceil(REMOVAL_HALF_WINDOW / (trace.bandwidth * trace.axis.dt)))
    cross = trace.frame.cross_dir
    span = REFINE_SPAN * cross_range_cell(trace)
    floor = 10.0 ** (REMOVAL_FLOOR_DB / 20.0)
    width = _window_width(half)
    rest = np.zeros((trace.n + 1, trace.m + 1 + 2 * width))
    rest[:, width:-width] = trace.data
    removed = {}
    kept = []
    strongest = 0.0
    for sweep in range(REMOVAL_SWEEPS):
        for k in range(len(points)) if sweep == 0 else kept:
            if k in removed:
                index, echo = removed[k]
                rest[index] += echo
            probe = _PointWindow(trace, rest, given[k], half)
            if sweep == 0:
                level = float(np.abs(_median_rows(probe.window())).max())
                if level == 0.0 or level <= floor * strongest:
                    continue
                strongest = max(strongest, level)
                kept.append(k)
            points[k] = _refine_cross_range(trace, probe, given[k], cross, span)
            win = _PointWindow(trace, rest, points[k], half)
            echo = win.put(_median_rows(win.window()))
            rest[win.index] -= echo
            removed[k] = (win.index, echo)
    return _split_off(trace, rest[:, width:-width], points[kept])
