"""Backprojection imaging with and without motion compensation.

Each pixel sums the traces at that pixel's differential travel times.
Off-grid fast-time samples come from band-limited 4x Fourier
upsampling of the analytic traces followed by 4-tap cubic
interpolation, and the image envelope is the magnitude of the sum of
the analytic traces.

Pixels are imaged in blocks of ``_BLOCK`` points on
``kernels._in_blocks`` (see ``sarsep.kernels``), each block writing
its own slice of the output.  A block's distances come from one rank-3
product: with q_j = r(s_j) - s_j u - rho_o per pulse and p = rho -
rho_o per point, |q_j - p|^2 = |q_j|^2 + |p|^2 - 2 q_j . p.  Measuring
both from ``rho_o`` keeps the rounding of the cancellation at the scale
of the range, however far the scene lies from the origin.
``kernels.backproject_block`` then samples only the (pulse, pixel)
pairs that fall inside the gate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geom import C_LIGHT, _require_finite, travel_time
from .kernels import _in_blocks, backproject_block
from .signal import AnalyticRows, TraceMatrix, _require_compressed

__all__ = [
    "ImageGrid",
    "SarImage",
    "image_points",
    "image",
    "image_compensated",
    "peak_extract",
    "profile",
    "half_power_width",
]

_ZERO3 = np.zeros(3)

#: Fast-time upsampling factor of the analytic rows.
_UPSAMPLE = 4

#: Points per backprojection block.  Every worker holds one block's
#: per-sample arrays at a time: about 120 bytes per sample when every
#: (pulse, point) pair is in the gate, 75 when half are (the delays'
#: 8 bytes and ``kernels.backproject_block``'s peak).  So the size is set
#: by per-worker memory: a call's at most four threads hold no more
#: samples than one thread with 1024-point blocks, while larger blocks
#: image a 167 x 167 grid up to 15% faster.
_BLOCK = 256


@dataclass(frozen=True)
class ImageGrid:
    """Pixel grid in the imaging plane (z = 0), centered on ``center``.

    Axis pixel counts are odd so the center point is itself a pixel.
    """

    center: np.ndarray
    extent_x: float
    extent_y: float
    spacing: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "center", center)
        if center.shape != (3,) or center[2] != 0.0:
            raise ValueError("grid center must be a 3-vector in the z = 0 plane")
        _require_finite(center=center)
        sizes = (self.spacing, self.extent_x, self.extent_y)
        if not all(0.0 < size < np.inf for size in sizes):
            raise ValueError("extents and spacing must be positive and finite")

    @property
    def x_axis(self) -> np.ndarray:
        half = int(np.floor(self.extent_x / (2.0 * self.spacing)))
        return self.center[0] + np.arange(-half, half + 1) * self.spacing

    @property
    def y_axis(self) -> np.ndarray:
        half = int(np.floor(self.extent_y / (2.0 * self.spacing)))
        return self.center[1] + np.arange(-half, half + 1) * self.spacing

    @property
    def shape(self) -> tuple[int, int]:
        return (self.y_axis.size, self.x_axis.size)

    def points(self) -> np.ndarray:
        """All pixel centers, shape (ny*nx, 3), x varying fastest."""
        xs, ys = self.x_axis, self.y_axis
        out = np.zeros((ys.size * xs.size, 3))
        gx, gy = np.meshgrid(xs, ys)
        out[:, 0] = gx.ravel()
        out[:, 1] = gy.ravel()
        return out


def _location_grid(trace: TraceMatrix, extent: float) -> ImageGrid:
    """Square box of side ``extent`` around the reference point at c/2B
    spacing, with B the trace's bandwidth."""
    spacing = C_LIGHT / (2.0 * trace.bandwidth)
    return ImageGrid(
        center=trace.rho_o, extent_x=extent, extent_y=extent, spacing=spacing
    )


@dataclass(frozen=True)
class SarImage:
    """Backprojection image over an ImageGrid.

    ``envelope`` is the magnitude of the analytic-signal sum.
    ``missed`` counts (pixel, row) samples that fell outside the
    fast-time gate and contributed zero.
    """

    grid: ImageGrid
    envelope: np.ndarray
    u_vec: np.ndarray
    missed: int

    def peak_value(self) -> float:
        return float(self.envelope.max())


def image_points(
    trace: TraceMatrix, points: np.ndarray, u_vec=None
) -> tuple[np.ndarray, int]:
    """Complex backprojection values at arbitrary in-plane points.

    Each point rho is imaged as the track rho + s u_vec.  Returns the
    complex sums and the count of (point, row) samples outside the gate.

    The points go through ``kernels.backproject_block`` ``_BLOCK`` at a
    time.  Per pulse,
    q_j = r(s_j) - s_j u_vec - rho_o is formed once; per block, the
    distances |q_j - p| to the points p = rho - rho_o come from
    |q_j|^2 + |p|^2 - 2 q_j . p, one (rows x 3) @ (3 x block) product.
    """
    _require_compressed(trace, "imaging")
    u_vec = _ZERO3 if u_vec is None else np.asarray(u_vec, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rows_up = AnalyticRows(trace).upsampled(_UPSAMPLE)
    t0, dt_up = float(trace.t_times[0]), trace.axis.dt / _UPSAMPLE
    start, stop = trace.valid_rows
    s = trace.s_times[start:stop]
    platform = trace.traj.position(s)
    tau_ref = travel_time(trace.traj, s, trace.rho_o)
    q = platform - s[:, None] * u_vec - trace.rho_o
    q_sq = np.einsum("ij,ij->i", q, q)[:, None]
    q_m2 = -2.0 * q
    centered = points - trace.rho_o
    p_sq = np.einsum("ij,ij->i", centered, centered)
    values = np.empty(points.shape[0], dtype=complex)

    def part(a, b):
        dtau = q_m2 @ centered[a:b].T
        dtau += q_sq
        dtau += p_sq[a:b]
        np.sqrt(dtau, out=dtau)
        dtau *= 2.0 / C_LIGHT
        dtau -= tau_ref[:, None]
        values[a:b], missed = backproject_block(rows_up, t0, dt_up, dtau)
        return int(missed.sum())

    return values, sum(_in_blocks(part, points.shape[0], _BLOCK))


def image_compensated(trace: TraceMatrix, grid: ImageGrid, u_vec) -> SarImage:
    """Backprojection image with motion compensation at velocity u_vec.

    With u_vec = 0 this is exactly the plain image: the search points
    simply do not move.
    """
    u_vec = np.asarray(u_vec, dtype=float)
    if u_vec.shape != (3,) or u_vec[2] != 0.0:
        raise ValueError("u_vec must be an in-plane 3-vector")
    _require_finite(u_vec=u_vec)
    values, missed = image_points(trace, grid.points(), u_vec)
    if missed > 0:
        warnings.warn(
            f"{missed} (pixel, pulse) samples fell outside the fast-time "
            "gate and contributed zero",
            RuntimeWarning,
            stacklevel=2,
        )
    return SarImage(
        grid=grid,
        envelope=np.abs(values).reshape(grid.shape),
        u_vec=u_vec,
        missed=missed,
    )


def image(trace: TraceMatrix, grid: ImageGrid) -> SarImage:
    """Backprojection image of stationary search points."""
    return image_compensated(trace, grid, _ZERO3)


def _parabolic_offset(left, mid, right):
    """Vertex of the parabola through three samples around a maximum.

    Works elementwise on arrays.  The offset is in samples from the
    middle one, clipped to +-0.5; a flat or convex top keeps the middle
    sample (offset 0).
    """
    curve = np.asarray(left - 2.0 * mid + right, dtype=float)
    offset = 0.5 * (left - right) / np.where(curve < 0.0, curve, -np.inf)
    return np.clip(offset, -0.5, 0.5)


def _refine_peaks(values: np.ndarray, index, axes, steps) -> np.ndarray:
    """Coordinates of the samples ``values[index]``, refined below the sample.

    ``index`` holds one index array per axis, ``axes`` the coordinates
    and ``steps`` the spacing along each.  Along each axis the parabola
    through a sample and its two neighbors moves the sample by
    ``_parabolic_offset`` times the step; a sample on the border of that
    axis keeps its coordinate.  Returns shape (len(index[0]), ndim).
    """
    index = tuple(np.atleast_1d(i) for i in index)
    mid = values[index]
    out = np.empty((mid.size, values.ndim))
    for k, (i, axis, step) in enumerate(zip(index, axes, steps)):
        n = values.shape[k]
        left = values[index[:k] + (np.maximum(i - 1, 0),) + index[k + 1 :]]
        right = values[index[:k] + (np.minimum(i + 1, n - 1),) + index[k + 1 :]]
        offset = _parabolic_offset(left, mid, right)
        out[:, k] = axis[i] + step * np.where((i > 0) & (i < n - 1), offset, 0.0)
    return out


def _local_maxima(values: np.ndarray, floor: float) -> tuple[np.ndarray, ...]:
    """Local maxima of an N-d array, strongest first.

    A sample is a peak when it lies off every border, is no smaller than
    any neighbor (diagonals included), is at least ``floor`` and is
    above zero.  Returns one index array per axis, sorted by a stable
    sort on value and reversed, so equal values come last index first.
    Every sample of a flat top is a peak, where a rule of strictly
    greater samples would keep one or none.
    """
    values = np.asarray(values, dtype=float)
    mid = values[tuple(slice(1, n - 1) for n in values.shape)]
    is_peak = (mid >= floor) & (mid > 0.0)
    for shift in np.ndindex((3,) * values.ndim):
        near = tuple(slice(k, n - 2 + k) for k, n in zip(shift, values.shape))
        is_peak &= mid >= values[near]
    index = tuple(i + 1 for i in np.nonzero(is_peak))
    order = np.argsort(values[index], kind="stable")[::-1]
    return tuple(i[order] for i in index)


def _peak_positions(env: np.ndarray, grid: ImageGrid, iy, ix) -> np.ndarray:
    """Positions of envelope pixels (iy, ix), refined below the pixel by
    ``_refine_peaks``.  Returns shape (len(iy), 3)."""
    yx = _refine_peaks(env, (iy, ix), (grid.y_axis, grid.x_axis), (grid.spacing,) * 2)
    return np.column_stack((yx[:, ::-1], np.zeros(len(yx))))


def peak_extract(img: SarImage) -> tuple[np.ndarray, float]:
    """The strongest envelope pixel, refined below the pixel.

    Returns (position, value); see ``_refine_peaks`` for the
    refinement.  Raises when the envelope is zero everywhere.
    """
    env = img.envelope
    iy, ix = np.unravel_index(int(np.argmax(env)), env.shape)
    value = float(env[iy, ix])
    if value <= 0.0:
        raise ValueError("image envelope is zero everywhere")
    return _peak_positions(env, img.grid, iy, ix)[0], value


def profile(
    trace: TraceMatrix,
    center,
    direction,
    half_extent: float,
    step: float,
    u_vec=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Envelope along a line through ``center`` in the imaging plane.

    Returns (signed offsets in meters, envelope values).
    """
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    offsets = np.arange(-half_extent, half_extent + 0.5 * step, step)
    points = np.asarray(center, dtype=float) + offsets[:, None] * direction
    values, _ = image_points(trace, points, u_vec)
    return offsets, np.abs(values)


def half_power_width(offsets: np.ndarray, envelope: np.ndarray) -> float:
    """Width of the main lobe at 1/sqrt(2) of the peak (the -3 dB level).

    Crossing positions are found by linear interpolation on either side
    of the maximum.  Raises when a crossing is missing (lobe truncated).
    """
    envelope = np.asarray(envelope, dtype=float)
    peak = int(np.argmax(envelope))
    level = envelope[peak] / np.sqrt(2.0)
    left = None
    for i in range(peak, 0, -1):
        if envelope[i - 1] < level <= envelope[i]:
            frac = (envelope[i] - level) / (envelope[i] - envelope[i - 1])
            left = offsets[i] - frac * (offsets[i] - offsets[i - 1])
            break
    right = None
    for i in range(peak, envelope.size - 1):
        if envelope[i + 1] < level <= envelope[i]:
            frac = (envelope[i] - level) / (envelope[i] - envelope[i + 1])
            right = offsets[i] + frac * (offsets[i + 1] - offsets[i])
            break
    if left is None or right is None:
        raise ValueError("main lobe is truncated by the profile extent")
    return float(right - left)
