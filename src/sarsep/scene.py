"""Scene descriptions and echo simulation.

A scene is a set of point targets, a platform trajectory, a reference
point on the ground, and the radar constants.  Simulation accumulates
one Gaussian-carrier echo per (pulse, target) pair directly on the
range-compressed (differential-delay) gate, sized to cover every trace
with padding for the pulse tails.  Use ``signal.range_expand`` to view
the same data on an absolute-delay gate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .geom import Aperture, Trajectory, _require_finite, delta_tau_moving, make_frame
from .kernels import accumulate_echoes
from .signal import GATE_PAD_FACTOR, FastTimeAxis, TraceMatrix, make_gate

#: Echoes are clipped beyond this many 1/bandwidth units from their center,
#: where the envelope has fallen below 1e-13.
KERNEL_CLIP_FACTOR = 8.0

__all__ = [
    "KERNEL_CLIP_FACTOR",
    "Radar",
    "Target",
    "SceneSpec",
    "target_delta_tau",
    "simulate",
    "simulate_split",
]


@dataclass(frozen=True)
class Radar:
    """Carrier frequency, bandwidth, and fast-time sample step (seconds).

    The default sample step is 1/(5 nu0), five samples per carrier
    cycle.  The Gaussian-envelope model assumes B well below nu0; a
    warning fires past B > nu0/4, and steps beyond the real-signal
    Nyquist limit 1/(2(nu0 + B/2)) are rejected.
    """

    nu0: float = 9.6e9
    bandwidth: float = 622.0e6
    dt: float = None  # type: ignore[assignment]

    def __post_init__(self):
        _require_finite(nu0=self.nu0, bandwidth=self.bandwidth)
        if self.nu0 <= 0.0 or self.bandwidth <= 0.0:
            raise ValueError("nu0 and bandwidth must be positive")
        if self.bandwidth > self.nu0 / 4.0:
            warnings.warn(
                "bandwidth exceeds nu0/4; the narrowband pulse model degrades",
                RuntimeWarning,
                stacklevel=2,
            )
        if self.dt is None:
            object.__setattr__(self, "dt", 1.0 / (5.0 * self.nu0))
        _require_finite(dt=self.dt)
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.dt > 1.0 / (2.0 * (self.nu0 + self.bandwidth / 2.0)):
            raise ValueError("dt violates the real-signal Nyquist limit")

    @property
    def omega0(self) -> float:
        return 2.0 * np.pi * self.nu0


@dataclass(frozen=True)
class Target:
    """Point target at rho (z = 0), drifting at a constant velocity."""

    rho: np.ndarray
    velocity: np.ndarray = (0.0, 0.0, 0.0)
    amplitude: float = 1.0

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        vel = np.asarray(self.velocity, dtype=float)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "velocity", vel)
        if rho.shape != (3,) or vel.shape != (3,):
            raise ValueError("rho and velocity must be 3-vectors")
        _require_finite(rho=rho, velocity=vel, amplitude=self.amplitude)
        if rho[2] != 0.0 or vel[2] != 0.0:
            raise ValueError("targets live in the z = 0 plane")

    @property
    def moving(self) -> bool:
        return bool(np.any(self.velocity != 0.0))


@dataclass(frozen=True)
class SceneSpec:
    """Everything needed to simulate a trace matrix."""

    traj: Trajectory
    rho_o: np.ndarray
    aperture: Aperture
    radar: Radar = field(default_factory=Radar)
    targets: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "rho_o", np.asarray(self.rho_o, dtype=float))
        object.__setattr__(self, "targets", tuple(self.targets))
        speed = self.traj.speed
        for k, tgt in enumerate(self.targets):
            if np.linalg.norm(tgt.velocity) >= speed:
                raise ValueError(
                    f"target {k} moves at {np.linalg.norm(tgt.velocity):.1f} m/s, "
                    f"not below the platform speed {speed:.1f} m/s"
                )
        radius = self.scene_radius
        frame = self.frame
        if radius > frame.range_L / 20.0:
            warnings.warn(
                f"scene radius {radius:.0f} m exceeds L/20 = "
                f"{frame.range_L / 20.0:.0f} m; far-field expansions degrade",
                RuntimeWarning,
                stacklevel=2,
            )

    @property
    def frame(self):
        return make_frame(self.traj, self.rho_o)

    @property
    def scene_radius(self) -> float:
        if not self.targets:
            return 0.0
        return float(
            max(np.linalg.norm(t.rho - self.rho_o) for t in self.targets)
        )

    @property
    def stationary_targets(self) -> tuple:
        return tuple(t for t in self.targets if not t.moving)

    @property
    def moving_targets(self) -> tuple:
        return tuple(t for t in self.targets if t.moving)

    def subset(self, targets) -> "SceneSpec":
        return replace(self, targets=tuple(targets))


def target_delta_tau(scene: SceneSpec) -> np.ndarray:
    """Differential delay of every target at every slow time.

    Entry [j, q] is tau(s_j, rho_q(s_j)) - tau(s_j, rho_o); shape
    (n+1, len(targets)).
    """
    s = scene.aperture.times
    dtau = np.empty((s.size, len(scene.targets)), dtype=float)
    for q, t in enumerate(scene.targets):
        dtau[:, q] = delta_tau_moving(scene.traj, s, t.rho, t.velocity, scene.rho_o)
    return dtau


def _design_gate(scene: SceneSpec, dtau: np.ndarray) -> FastTimeAxis:
    """Gate covering the delays ``dtau`` plus GATE_PAD_FACTOR/bandwidth per side."""
    pad = GATE_PAD_FACTOR / scene.radar.bandwidth
    return make_gate(float(dtau.min()), float(dtau.max()), scene.radar.dt, pad)


def simulate(
    scene: SceneSpec,
    axis: FastTimeAxis | None = None,
) -> TraceMatrix:
    """Simulate range-compressed echo traces for a scene.

    Each target contributes pulse(t - dtau_q(s_j)) to row j, where
    dtau_q is the target's differential delay.  The traces are
    noiseless, so the result depends on ``scene`` and ``axis`` alone.

    Parameters
    ----------
    scene : SceneSpec
    axis : FastTimeAxis, optional
        Gate to sample on.  By default a gate is designed to cover the
        differential-delay extremes of all targets plus
        ``GATE_PAD_FACTOR``/bandwidth of padding on each side, so a
        scene without targets needs an explicit gate, on which it
        simulates to zeros.  An explicit gate that loses any target is
        rejected.

    Returns
    -------
    TraceMatrix
        Tagged ``range-compressed``.
    """
    radar = scene.radar
    dtau = target_delta_tau(scene)
    if axis is None:
        if not scene.targets:
            raise ValueError("scene has no targets")
        axis = _design_gate(scene, dtau)
    else:
        t_lo, t_hi = axis.times[0], axis.times[-1]
        lost = [
            q
            for q in range(dtau.shape[1])
            if dtau[:, q].min() < t_lo or dtau[:, q].max() > t_hi
        ]
        if lost:
            raise ValueError(
                f"targets {lost} have delays outside the fast-time gate"
            )
    amps = np.array([t.amplitude for t in scene.targets], dtype=float)
    data = np.zeros((scene.aperture.n + 1, axis.m + 1), dtype=float)
    accumulate_echoes(
        data,
        dtau,
        float(axis.times[0]),
        axis.dt,
        radar.nu0,
        radar.bandwidth,
        amps,
        KERNEL_CLIP_FACTOR / radar.bandwidth,
    )
    return TraceMatrix(
        data=data,
        aperture=scene.aperture,
        axis=axis,
        traj=scene.traj,
        rho_o=scene.rho_o,
        nu0=scene.radar.nu0,
        bandwidth=scene.radar.bandwidth,
        tag="range-compressed",
        meta={
            "kind": "simulated",
            "targets": len(scene.targets),
            "movers": len(scene.moving_targets),
        },
    )


def simulate_split(
    scene: SceneSpec,
    axis: FastTimeAxis | None = None,
) -> tuple[TraceMatrix, TraceMatrix]:
    """Simulate the stationary-only and moving-only parts on one gate.

    Returns (stationary, moving); their sum equals ``simulate`` of the
    full scene on the same gate, by linearity of the forward model.
    Either part may be an all-zero matrix.
    """
    if axis is None:
        axis = _design_gate(scene, target_delta_tau(scene))
    return tuple(
        simulate(scene.subset(part), axis=axis)
        for part in (scene.stationary_targets, scene.moving_targets)
    )
