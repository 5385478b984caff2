"""Platform trajectories, travel times, and the range/cross-range velocity frame.

Positions are double-precision meters, times double-precision seconds.
The scene lies in the z = 0 plane; the platform flies above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

C_LIGHT = 299_792_458.0  # m/s

__all__ = [
    "C_LIGHT",
    "LinearTrajectory",
    "CircularTrajectory",
    "Aperture",
    "ViewFrame",
    "make_frame",
    "travel_time",
    "delta_tau_moving",
    "decompose_velocity",
    "compose_velocity",
]


def _require_finite(**values) -> None:
    """Reject a non-finite value, or one that is not a number, by name:
    NaN passes every comparison."""
    for name, value in values.items():
        try:
            finite = np.all(np.isfinite(value))
        except TypeError:
            raise ValueError(f"{name} must be a number, got {value!r}") from None
        if not finite:
            raise ValueError(f"{name} must be finite, got {value}")


def _unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("zero vector has no direction")
    return v / n


@dataclass(frozen=True)
class LinearTrajectory:
    """Straight flight path r(s) = center + speed*s*tangent."""

    center: np.ndarray
    tangent: np.ndarray
    speed: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "tangent", np.asarray(self.tangent, dtype=float))
        _require_finite(center=self.center, tangent=self.tangent, speed=self.speed)
        if abs(np.linalg.norm(self.tangent) - 1.0) > 1e-12:
            raise ValueError("tangent must be a unit vector")
        if self.speed <= 0.0:
            raise ValueError("speed must be positive")

    def position(self, s):
        s = np.asarray(s, dtype=float)
        return self.center + self.speed * s[..., None] * self.tangent

    def tangent_at(self, s):
        s = np.asarray(s, dtype=float)
        return np.broadcast_to(self.tangent, s.shape + (3,)).copy()


@dataclass(frozen=True)
class CircularTrajectory:
    """Circular flight path at constant height, parameterized by arc time.

    r(s) = (cx + R cos(phi), cy + R sin(phi), H) with phi = origin_angle +
    angular_rate * s, so the along-track speed is |angular_rate| * radius.
    """

    center: np.ndarray  # (cx, cy) of the circle, meters
    radius: float
    height: float
    angular_rate: float  # rad/s, sign sets the direction of flight
    origin_angle: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        _require_finite(center=self.center, radius=self.radius, height=self.height)
        _require_finite(angular_rate=self.angular_rate, origin_angle=self.origin_angle)
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if self.angular_rate == 0.0:
            raise ValueError("angular_rate must be nonzero")

    @property
    def speed(self) -> float:
        return abs(self.angular_rate) * self.radius

    def position(self, s):
        s = np.asarray(s, dtype=float)
        phi = self.origin_angle + self.angular_rate * s
        out = np.empty(s.shape + (3,), dtype=float)
        out[..., 0] = self.center[0] + self.radius * np.cos(phi)
        out[..., 1] = self.center[1] + self.radius * np.sin(phi)
        out[..., 2] = self.height
        return out

    def tangent_at(self, s):
        s = np.asarray(s, dtype=float)
        phi = self.origin_angle + self.angular_rate * s
        sgn = np.sign(self.angular_rate)
        out = np.empty(s.shape + (3,), dtype=float)
        out[..., 0] = -sgn * np.sin(phi)
        out[..., 1] = sgn * np.cos(phi)
        out[..., 2] = 0.0
        return out


Trajectory = LinearTrajectory | CircularTrajectory


@dataclass(frozen=True)
class Aperture:
    """Uniform slow-time grid s_j = j*ds for j = -n/2 .. n/2 (n even)."""

    n: int
    ds: float

    def __post_init__(self):
        if self.n % 2 != 0 or self.n < 2:
            raise ValueError("n must be an even integer >= 2")
        _require_finite(ds=self.ds)
        if self.ds <= 0.0:
            raise ValueError("ds must be positive")

    @property
    def times(self) -> np.ndarray:
        return (np.arange(self.n + 1) - self.n // 2) * self.ds


def travel_time(traj: Trajectory, s, rho) -> np.ndarray:
    """Round-trip travel time 2|r(s) - rho|/c.

    Parameters
    ----------
    traj : trajectory
    s : scalar or array of slow times, seconds
    rho : position, broadcastable against r(s)

    Returns
    -------
    Scalar or array of seconds, matching the broadcast shape.
    """
    r = traj.position(s)
    d = np.linalg.norm(r - np.asarray(rho, dtype=float), axis=-1)
    return 2.0 * d / C_LIGHT


def delta_tau_moving(traj: Trajectory, s: np.ndarray, rho0, u_vec, rho_o) -> np.ndarray:
    """Differential delay to the moving point rho0 + s*u_vec, per slow time."""
    s = np.asarray(s, dtype=float)
    pts = np.asarray(rho0, dtype=float) + s[..., None] * np.asarray(u_vec, dtype=float)
    r = traj.position(s)
    d = np.linalg.norm(r - pts, axis=-1)
    return 2.0 * d / C_LIGHT - travel_time(traj, s, rho_o)


@dataclass(frozen=True)
class ViewFrame:
    """Range/cross-range frame anchored at the reference point rho_o.

    m_hat points from rho_o toward the aperture center r(0); t_hat is the
    flight tangent there.  b_m and b_t are their projections onto the
    imaging plane (not normalized).
    """

    rho_o: np.ndarray
    m_hat: np.ndarray
    t_hat: np.ndarray
    range_L: float
    speed: float

    @property
    def projector(self) -> np.ndarray:
        # P_o = I - m m^T, symmetric idempotent
        return np.eye(3) - np.outer(self.m_hat, self.m_hat)

    @property
    def b_m(self) -> np.ndarray:
        return self.m_hat[:2].copy()

    @property
    def b_t(self) -> np.ndarray:
        return self.t_hat[:2].copy()

    @property
    def range_dir(self) -> np.ndarray:
        """Unit ground-plane vector along increasing range."""
        v = np.append(self.b_m, 0.0)
        return _unit(v)

    @property
    def cross_dir(self) -> np.ndarray:
        """Unit ground-plane vector along increasing cross-range."""
        v = np.append(self.b_t, 0.0)
        return _unit(v)


def make_frame(traj: Trajectory, rho_o) -> ViewFrame:
    rho_o = np.asarray(rho_o, dtype=float)
    if rho_o.shape != (3,):
        raise ValueError("rho_o must be a 3-vector")
    if rho_o[2] != 0.0:
        raise ValueError("rho_o must lie in the imaging plane (zero altitude)")
    r0 = traj.position(0.0)
    offset = r0 - rho_o
    L = float(np.linalg.norm(offset))
    if L == 0.0:
        raise ValueError("reference point coincides with the platform")
    return ViewFrame(
        rho_o=rho_o,
        m_hat=offset / L,
        t_hat=_unit(traj.tangent_at(0.0)),
        range_L=L,
        speed=traj.speed,
    )


def decompose_velocity(frame: ViewFrame, u_vec) -> tuple[float, float]:
    """Split an in-plane velocity into range and cross-range speeds.

    u = u_vec . m_hat and u_perp = t_hat . P_o u_vec.  Rejects velocities
    with a vertical component.
    """
    u_vec = np.asarray(u_vec, dtype=float)
    if u_vec.shape != (3,):
        raise ValueError("u_vec must be a 3-vector")
    if u_vec[2] != 0.0:
        raise ValueError("u_vec must be horizontal (zero vertical component)")
    u = float(u_vec @ frame.m_hat)
    u_perp = float(frame.t_hat @ (u_vec - u * frame.m_hat))
    return u, u_perp


def compose_velocity(frame: ViewFrame, u, u_perp) -> np.ndarray:
    """In-plane velocities with the given range and cross-range speeds.

    Solves b_u . b_m = u and b_u . b_t = u_perp + u * (m_hat . t_hat) for the
    two horizontal components; the exact inverse of decompose_velocity.
    The speeds broadcast; the result has their shape plus a last axis of
    3.  Each velocity is its own 2x2 solve, bit for bit the scalar call.
    """
    u, u_perp = np.broadcast_arrays(u, u_perp)
    A = np.stack([frame.b_m, frame.b_t])
    if abs(np.linalg.det(A)) < 1e-14:
        raise ValueError("degenerate frame: b_m and b_t are parallel")
    rhs = np.stack([u, u_perp + u * float(frame.m_hat @ frame.t_hat)], axis=-1)
    b_u = np.linalg.solve(np.broadcast_to(A, rhs.shape + (2,)), rhs[..., None])
    return np.concatenate([b_u[..., 0], np.zeros(u.shape + (1,))], axis=-1)
