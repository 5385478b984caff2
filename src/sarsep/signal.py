"""Pulse model, fast-time sampling, and range compression.

The transmitted pulse is a Gaussian-windowed carrier.  Fast-time grids
always hold an odd number of samples whose count factors into 3, 5, and
7 only, so the real FFT round-trips exactly (no Nyquist bin) and stays
fast.  Fractional-sample delays are applied as spectral phase ramps.

A trace matrix is tagged with its processing state.  Tag ``raw`` means
the fast-time axis measures absolute round-trip delay; all other tags
(``range-compressed``, ``transformed``, ``filtered``) mean the axis
measures differential delay relative to the reference point rho_o.

Spectral shifts are circular on the gate: content advanced past one
edge re-enters at the other.  A shift and its negation are exact
inverses, and slow-time differences commute with them, so
``annihil.annihilate`` and the round trip ``tt_forward`` -> ... ->
``tt_inverse`` are exact at any shift.  The readers that do not come
back are safe on their own terms: ``range_expand`` widens its gate,
since its output is read by absolute delay; ``annihil._PointWindow``
reads rows by integer offset; and the speed scans' scores do not
change under a circular shift.  The peel (``motion._peel``) splits only
one window of ``rpca.choose_window``'s length around t = 0, so it sees
wrapped columns only if a straightening shift exceeds the window's
distance to the gate edge, (gate - window)/2 for a centred window;
``separate_movers`` records its largest shift as a fraction of the gate
in ``diagnostics["max_shift_frac"]``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .geom import Aperture, Trajectory, travel_time

#: Gate padding on each side of the delay extremes, in units of 1/bandwidth.
GATE_PAD_FACTOR = 6.0

#: Allowed TraceMatrix provenance tags.
TRACE_TAGS = ("raw", "range-compressed", "transformed", "filtered")

__all__ = [
    "GATE_PAD_FACTOR",
    "TRACE_TAGS",
    "pulse",
    "next_fast_odd",
    "FastTimeAxis",
    "make_gate",
    "TraceMatrix",
    "phase_ramp",
    "AnalyticRows",
    "fractional_shift",
    "fast_time_shift",
    "range_compress",
    "range_expand",
]


def pulse(t, nu0: float, bandwidth: float) -> np.ndarray:
    """Gaussian-windowed carrier cos(2 pi nu0 t) exp(-(B t)^2 / 2).

    The envelope falls to exp(-4.5) (about -39 dB) at |t| = 3/B, so the
    effective support is 6/B.
    """
    t = np.asarray(t, dtype=float)
    return np.cos(2.0 * np.pi * nu0 * t) * np.exp(-0.5 * (bandwidth * t) ** 2)


def next_fast_odd(n: int) -> int:
    """Smallest odd integer >= n whose prime factors are all in {3, 5, 7}."""
    if n < 1:
        return 1
    k = int(n)
    if k % 2 == 0:
        k += 1
    while True:
        r = k
        for p in (3, 5, 7):
            while r % p == 0:
                r //= p
        if r == 1:
            return k
        k += 2


@dataclass(frozen=True)
class FastTimeAxis:
    """Uniform fast-time grid t_i = t_center + (i - m/2) dt, i = 0 .. m.

    m is even, so the grid has an odd number of samples centered on
    t_center.
    """

    m: int
    dt: float
    t_center: float

    def __post_init__(self):
        if self.m % 2 != 0 or self.m < 2:
            raise ValueError("m must be an even integer >= 2")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")

    @property
    def half_width(self) -> float:
        return 0.5 * self.m * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t_center + (np.arange(self.m + 1) - self.m // 2) * self.dt


def make_gate(t_lo: float, t_hi: float, dt: float, pad: float) -> FastTimeAxis:
    """Fast-time axis covering [t_lo - pad, t_hi + pad].

    The sample count is rounded up to the next odd 7-smooth integer.
    """
    if t_hi < t_lo:
        raise ValueError("t_hi must not be less than t_lo")
    half = 0.5 * (t_hi - t_lo) + pad
    m_min = int(np.ceil(2.0 * half / dt))
    m_min += m_min % 2
    count = next_fast_odd(max(m_min + 1, 3))
    return FastTimeAxis(m=count - 1, dt=dt, t_center=0.5 * (t_lo + t_hi))


@dataclass(frozen=True)
class TraceMatrix:
    """Matrix of echo traces, one row per slow time.

    data[j, i] holds the echo at slow time s_j = (j - n/2) ds and fast
    time t_i on the gate.  ``tag`` records the processing state; see the
    module docstring for the fast-time coordinate convention.
    ``valid_rows`` is the half-open row range untouched by slow-time
    differencing; rows outside it are zero.
    """

    data: np.ndarray
    aperture: Aperture
    axis: FastTimeAxis
    traj: Trajectory
    rho_o: np.ndarray
    tag: str = "raw"
    valid_rows: tuple[int, int] = None  # type: ignore[assignment]
    meta: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rho_o", np.asarray(self.rho_o, dtype=float))
        if self.tag not in TRACE_TAGS:
            raise ValueError(f"unknown trace tag {self.tag!r}")
        if data.shape != (self.aperture.n + 1, self.axis.m + 1):
            raise ValueError(
                f"data shape {data.shape} does not match "
                f"(n+1, m+1) = {(self.aperture.n + 1, self.axis.m + 1)}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("trace data contains non-finite entries")
        if self.valid_rows is None:
            object.__setattr__(self, "valid_rows", (0, self.aperture.n + 1))
        start, stop = self.valid_rows
        if not (0 <= start < stop <= self.aperture.n + 1):
            raise ValueError(f"invalid valid_rows {self.valid_rows}")
        object.__setattr__(self, "valid_rows", (int(start), int(stop)))

    @property
    def n(self) -> int:
        return self.aperture.n

    @property
    def m(self) -> int:
        return self.axis.m

    @property
    def compressed(self) -> bool:
        return self.tag != "raw"

    @property
    def s_times(self) -> np.ndarray:
        return self.aperture.times

    @property
    def t_times(self) -> np.ndarray:
        return self.axis.times

    @property
    def valid_data(self) -> np.ndarray:
        start, stop = self.valid_rows
        return self.data[start:stop]

    def replace(self, **changes) -> "TraceMatrix":
        return dataclasses.replace(self, **changes)


def _require_compressed(trace: TraceMatrix, what: str) -> None:
    """Reject a ``raw`` trace: ``what`` reads fast time as the
    differential delay."""
    if not trace.compressed:
        raise ValueError(f"{what} requires a range-compressed trace")


def phase_ramp(
    delays, count: int, dt: float, k0: int = 0, bins: int | None = None
) -> np.ndarray:
    """exp(2 pi i f_k d_j) for delays d_j over a uniform frequency grid.

    The grid is f_k = (k0 + k) / (count dt), k = 0 .. bins - 1: the bins
    of a ``count``-point FFT from bin ``k0`` on, by default all the
    real-FFT bins.  Row j holds delay d_j.  Each entry is the product of
    one entry of a fine table (about sqrt(bins) unit steps) and one of a
    coarse table (multiples of the fine table's length), so only
    2 sqrt(bins) complex exponentials are evaluated per row.  Unlike a
    cumulative product of unit steps, the error does not grow with k:
    a ramp times the ramp of the negated delays is 1 to a few machine
    epsilons.
    """
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    if bins is None:
        bins = count // 2 + 1
    block = math.isqrt(bins) + 1
    step = 2j * np.pi * delays[:, None] / (count * dt)
    fine = np.exp(step * np.arange(block))
    coarse = np.exp(step * (k0 + block * np.arange(-(-bins // block))))
    ramp = coarse[:, :, None] * fine[:, None, :]
    return ramp.reshape(delays.size, -1)[:, :bins]


def _shift_spectra(spectra, delays, count: int, dt: float, rows=None, out=None):
    """Advance the rows held as real-FFT spectra, in place.

    Row j of ``spectra`` (``count`` samples' ``count // 2 + 1`` bins) is
    multiplied by the phase ramp of ``delays[j]``.  With ``rows``, it is
    first set to the real FFT of ``rows[j]``; with ``out``, ``out[j]``
    receives the shifted row's inverse real FFT.  The rows run in blocks
    of ``kernels._ROW_CHUNK`` on ``kernels._in_blocks`` (see
    ``sarsep.kernels``), so the only temporaries are one block's phase
    ramp per worker.  Every row takes the same operations as in one
    whole-array pass, so the result does not depend on the block size.
    """

    def part(r0, r1):
        block = spectra[r0:r1]
        if rows is not None:
            np.fft.rfft(rows[r0:r1], axis=1, out=block)
        block *= phase_ramp(delays[r0:r1], count, dt)
        if out is not None:
            np.fft.irfft(block, n=count, axis=1, out=out[r0:r1])

    kernels._in_blocks(part, len(spectra), kernels._ROW_CHUNK)


def fractional_shift(rows: np.ndarray, delays, dt: float) -> np.ndarray:
    """Advance each row by its delay: out_j(t) = rows_j(t + delay_j).

    Implemented as a phase ramp on the real FFT, which is exact for
    band-limited rows and circular at the gate edges.  ``delays``
    broadcast against the rows.  The rows are shifted in blocks
    (``_shift_spectra``): the spectra are the only temporary of the
    rows' size.
    """
    rows = np.asarray(rows, dtype=float)
    count = rows.shape[-1]
    flat = rows.reshape(-1, count)
    delays = np.broadcast_to(np.asarray(delays, dtype=float), rows.shape[:-1])
    spectra = np.empty((len(flat), count // 2 + 1), dtype=complex)
    out = np.empty(flat.shape)
    _shift_spectra(spectra, delays.reshape(-1), count, dt, rows=flat, out=out)
    return out.reshape(rows.shape)


class AnalyticRows:
    """Analytic signals of a trace's valid rows, held as spectra.

    ``spectra`` holds each valid row's one-sided spectrum with bins
    k >= 1 doubled.  When the trace metadata records nu0 and the
    bandwidth B, ``shifted`` keeps only the ``bins`` bins of nu0 +- 2B
    from bin ``k_lo`` on: its output is the analytic row at ``bins``
    times across the gate, times (count/bins) exp(-2 pi i k_lo n/bins) at
    sample n.  Magnitudes of row sums are unchanged and the scans run
    several times faster.  Otherwise ``k_lo`` is 0 and ``bins`` spans
    the whole one-sided spectrum.
    """

    def __init__(self, trace: TraceMatrix):
        self.count, self.dt = trace.axis.m + 1, trace.axis.dt
        self.spectra = np.fft.rfft(trace.valid_data, axis=1)
        self.spectra[:, 1:] *= 2.0
        self.k_lo, self.bins = 0, self.spectra.shape[1]
        nu0, bandwidth = trace.meta.get("nu0"), trace.meta.get("bandwidth")
        if nu0 is not None and bandwidth is not None:
            df = 1.0 / (self.count * self.dt)
            keep = next_fast_odd(max(3, int(np.ceil(4.0 * bandwidth / df))))
            k_lo = int(round(nu0 / df)) - keep // 2
            if keep < self.count and k_lo >= 1 and k_lo + keep <= self.bins:
                self.k_lo, self.bins = k_lo, keep

    def shifted(self, delays) -> np.ndarray:
        """Rows advanced by per-row ``delays``: out_j(t) = in_j(t + delays_j).

        ``delays`` of shape (..., rows) shift the rows once per leading
        index, in one FFT call; the output has shape (..., rows, samples).
        """
        delays = np.asarray(delays, dtype=float)
        band = self.spectra[:, self.k_lo : self.k_lo + self.bins]
        # The ramp is dropped before the FFT, so the FFT's input and
        # output are the only arrays of a batch's size alive across it.
        band = band * phase_ramp(
            delays.ravel(), self.count, self.dt, self.k_lo, self.bins
        ).reshape(delays.shape + (self.bins,))
        return np.fft.ifft(band, n=self.bins if self.k_lo else self.count, axis=-1)

    def upsampled(self, factor: int) -> np.ndarray:
        """Analytic rows at step dt/``factor`` from the gate's first sample."""
        rows, bins = self.spectra.shape
        padded = np.zeros((rows, factor * self.count), dtype=complex)
        padded[:, :bins] = self.spectra
        # In place: the rows are the largest array of an image.
        np.fft.ifft(padded, axis=1, out=padded)
        padded *= factor
        return padded


def fast_time_shift(trace: TraceMatrix, shifts) -> TraceMatrix:
    """Per-row fast-time advance of a trace matrix by ``shifts`` seconds.

    Row j of the output samples row j of the input at t + shifts[j].
    Exactly invertible by the negated shifts.
    """
    shifts = np.broadcast_to(
        np.asarray(shifts, dtype=float), (trace.aperture.n + 1,)
    )
    data = fractional_shift(trace.data, shifts, trace.axis.dt)
    start, stop = trace.valid_rows
    if (start, stop) != (0, trace.aperture.n + 1):
        data[:start] = 0.0
        data[stop:] = 0.0
    return trace.replace(data=data)


def range_compress(trace: TraceMatrix, new_center: float | None = None) -> TraceMatrix:
    """Re-center every trace on the reference point's travel time.

    Row j of the output samples the same echo as row j of the input, but
    against the differential delay t' = t - tau(s_j, rho_o).  By default
    the new gate center is chosen so the rows barely move inside the
    gate; pass ``new_center`` to pin the compressed gate center instead.
    """
    if trace.compressed:
        raise ValueError("trace is already range-compressed")
    tau_ref = travel_time(trace.traj, trace.s_times, trace.rho_o)
    if new_center is None:
        new_center = trace.axis.t_center - float(np.mean(tau_ref))
    delays = tau_ref + (new_center - trace.axis.t_center)
    data = fractional_shift(trace.data, delays, trace.axis.dt)
    axis = FastTimeAxis(m=trace.axis.m, dt=trace.axis.dt, t_center=new_center)
    return trace.replace(data=data, axis=axis, tag="range-compressed")


def range_expand(trace: TraceMatrix) -> TraceMatrix:
    """Undo range compression, restoring absolute-delay rows.

    The new gate is centered on the old center plus the mean reference
    delay.  It is widened (odd 7-smooth sample count again) before
    shifting so that content pushed outward by the per-row reference
    delays cannot wrap around the gate edges.
    """
    if not trace.compressed:
        raise ValueError("trace is not range-compressed")
    tau_ref = travel_time(trace.traj, trace.s_times, trace.rho_o)
    new_center = trace.axis.t_center + float(np.mean(tau_ref))
    # Row content at differential t' sits at absolute t' + tau_ref, so the
    # residual shift after re-centering is small (geometry variation only).
    delays = new_center - (trace.axis.t_center + tau_ref)
    dt = trace.axis.dt
    spread = int(np.ceil(float(np.max(np.abs(delays))) / dt)) + 2
    old_count = trace.axis.m + 1
    new_count = next_fast_odd(old_count + 2 * spread)
    offset = (new_count - 1) // 2 - trace.axis.m // 2
    wide = np.zeros((trace.aperture.n + 1, new_count), dtype=float)
    wide[:, offset : offset + old_count] = trace.data
    data = fractional_shift(wide, delays, dt)
    axis = FastTimeAxis(m=new_count - 1, dt=dt, t_center=new_center)
    return trace.replace(data=data, axis=axis, tag="raw")

