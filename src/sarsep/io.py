"""File formats: .trc trace containers, scene JSON, and PGM images.

A trace is stored as raw little-endian float64 samples in ``name.trc``
(row-major, one row per pulse) next to a ``name.trc.json`` sidecar
holding the axes, geometry, provenance tag, and metadata; the
metadata carries the radar band (``nu0`` and ``bandwidth``, in Hz).
Writing the same trace twice produces byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .geom import Aperture, CircularTrajectory, LinearTrajectory, Trajectory
from .scene import Radar, SceneSpec, Target
from .signal import FastTimeAxis, TraceMatrix

__all__ = [
    "trajectory_to_dict",
    "trajectory_from_dict",
    "target_to_dict",
    "target_from_dict",
    "scene_to_dict",
    "scene_from_dict",
    "write_trace",
    "read_trace",
    "write_image",
    "read_image",
    "write_pgm",
]


def _json_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def _json_objects(value, name: str) -> list:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, dict) for v in value
    ):
        raise ValueError(f"{name} must be a list of JSON objects")
    return list(value)


def _whole(value, name: str) -> int:
    """``value`` as an int; a bool, a fraction or a non-number is rejected."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def trajectory_to_dict(traj: Trajectory) -> dict:
    if isinstance(traj, LinearTrajectory):
        return {
            "kind": "linear",
            "center_meters": np.asarray(traj.center).tolist(),
            "tangent": np.asarray(traj.tangent).tolist(),
            "speed_meters_per_second": traj.speed,
        }
    if isinstance(traj, CircularTrajectory):
        return {
            "kind": "circular",
            "center_meters": np.asarray(traj.center).tolist(),
            "radius_meters": traj.radius,
            "height_meters": traj.height,
            "angular_rate_radians_per_second": traj.angular_rate,
            "origin_angle_radians": traj.origin_angle,
        }
    raise TypeError(f"unsupported trajectory type: {type(traj).__name__}")


def trajectory_from_dict(spec: dict) -> Trajectory:
    kind = _json_object(spec, "trajectory").get("kind")
    if kind == "linear":
        return LinearTrajectory(
            center=np.asarray(spec["center_meters"], dtype=float),
            tangent=np.asarray(spec["tangent"], dtype=float),
            speed=float(spec["speed_meters_per_second"]),
        )
    if kind == "circular":
        return CircularTrajectory(
            center=np.asarray(spec["center_meters"], dtype=float),
            radius=float(spec["radius_meters"]),
            height=float(spec["height_meters"]),
            angular_rate=float(spec["angular_rate_radians_per_second"]),
            origin_angle=float(spec.get("origin_angle_radians", 0.0)),
        )
    raise ValueError(f"unknown trajectory kind: {kind!r}")


def target_to_dict(target: Target) -> dict:
    return {
        "rho_meters": np.asarray(target.rho).tolist(),
        "velocity_meters_per_second": np.asarray(target.velocity).tolist(),
        "amplitude": target.amplitude,
    }


def target_from_dict(spec: dict) -> Target:
    _json_object(spec, "target")
    return Target(
        rho=np.asarray(spec["rho_meters"], dtype=float),
        velocity=np.asarray(
            spec.get("velocity_meters_per_second", (0.0, 0.0, 0.0)), dtype=float
        ),
        amplitude=float(spec.get("amplitude", 1.0)),
    )


def scene_to_dict(scene: SceneSpec) -> dict:
    return {
        "trajectory": trajectory_to_dict(scene.traj),
        "rho_o_meters": np.asarray(scene.rho_o).tolist(),
        "aperture": {"n": scene.aperture.n, "ds_seconds": scene.aperture.ds},
        "radar": {
            "nu0_hz": scene.radar.nu0,
            "bandwidth_hz": scene.radar.bandwidth,
            "dt_seconds": scene.radar.dt,
        },
        "targets": [target_to_dict(t) for t in scene.targets],
    }


def scene_from_dict(spec: dict) -> SceneSpec:
    """Scene from its JSON form; raises ``ValueError`` naming the field
    when a block is not a JSON object, ``targets`` is not a list of
    objects, or the pulse count is not a whole number."""
    _json_object(spec, "scene")
    radar_spec = _json_object(spec.get("radar", {}), "radar")
    radar = Radar(
        nu0=float(radar_spec.get("nu0_hz", 9.6e9)),
        bandwidth=float(radar_spec.get("bandwidth_hz", 622.0e6)),
        dt=radar_spec.get("dt_seconds"),
    )
    aperture_spec = _json_object(spec["aperture"], "aperture")
    targets = _json_objects(spec.get("targets", []), "targets")
    return SceneSpec(
        traj=trajectory_from_dict(spec["trajectory"]),
        rho_o=np.asarray(spec["rho_o_meters"], dtype=float),
        aperture=Aperture(
            n=_whole(aperture_spec["n"], "aperture n"),
            ds=float(aperture_spec["ds_seconds"]),
        ),
        radar=radar,
        targets=tuple(target_from_dict(t) for t in targets),
    )


def _trc_paths(path) -> tuple[Path, Path]:
    path = Path(path)
    if path.suffix != ".trc":
        path = path.with_name(path.name + ".trc")
    return path, path.with_name(path.name + ".json")


def write_trace(path, trace: TraceMatrix) -> Path:
    """Write ``trace`` to ``path`` (.trc payload plus .trc.json sidecar,
    whose ``meta`` also holds the trace's ``nu0`` and ``bandwidth``)."""
    data_path, meta_path = _trc_paths(path)
    sidecar = {
        "n": trace.aperture.n,
        "m": trace.axis.m,
        "delta_s_seconds": trace.aperture.ds,
        "delta_t_seconds": trace.axis.dt,
        "gate_center_seconds": trace.axis.t_center,
        "gate_half_width_seconds": trace.axis.half_width,
        "provenance": trace.tag,
        "valid_rows": list(trace.valid_rows),
        "trajectory": trajectory_to_dict(trace.traj),
        "rho_o_meters": np.asarray(trace.rho_o).tolist(),
        "meta": {**trace.meta, "nu0": trace.nu0, "bandwidth": trace.bandwidth},
    }
    data_path.parent.mkdir(parents=True, exist_ok=True)
    np.ascontiguousarray(trace.data, dtype="<f8").tofile(data_path)
    # numpy scalars and arrays in ``meta`` are written as JSON numbers and lists.
    text = json.dumps(sidecar, indent=2, sort_keys=True, default=lambda v: v.tolist())
    meta_path.write_text(text + "\n")
    return data_path


def read_trace(path) -> TraceMatrix:
    """Read a trace written by ``write_trace``; raises ``ValueError`` when
    the sidecar's ``meta`` records no ``nu0`` or ``bandwidth``."""
    data_path, meta_path = _trc_paths(path)
    sidecar = json.loads(meta_path.read_text())
    meta = dict(sidecar.get("meta", {}))
    for key in ("nu0", "bandwidth"):
        if meta.get(key) is None:
            raise ValueError(f"{meta_path} records no {key} in its meta")
    aperture = Aperture(n=int(sidecar["n"]), ds=float(sidecar["delta_s_seconds"]))
    axis = FastTimeAxis(
        m=int(sidecar["m"]),
        dt=float(sidecar["delta_t_seconds"]),
        t_center=float(sidecar["gate_center_seconds"]),
    )
    shape = (aperture.n + 1, axis.m + 1)
    data = np.fromfile(data_path, dtype="<f8")
    if data.size != shape[0] * shape[1]:
        raise ValueError(
            f"{data_path} holds {data.size} samples, expected {shape[0] * shape[1]}"
        )
    return TraceMatrix(
        data=data.reshape(shape),
        aperture=aperture,
        axis=axis,
        traj=trajectory_from_dict(sidecar["trajectory"]),
        rho_o=np.asarray(sidecar["rho_o_meters"], dtype=float),
        nu0=meta.pop("nu0"),
        bandwidth=meta.pop("bandwidth"),
        tag=sidecar["provenance"],
        valid_rows=tuple(sidecar["valid_rows"]),
        meta=meta,
    )


def write_image(path, envelope: np.ndarray, header: dict) -> Path:
    """Write an image as raw little-endian float64 plus a JSON sidecar."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    envelope = np.ascontiguousarray(envelope, dtype="<f8")
    np.asarray(envelope).tofile(path)
    sidecar = {"shape": list(envelope.shape), **header}
    Path(str(path) + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    )
    return path


def read_image(path) -> tuple[np.ndarray, dict]:
    """Read an image written by ``write_image``; raises ``ValueError``
    when the payload's sample count or any sample is wrong."""
    path = Path(path)
    sidecar = json.loads(Path(str(path) + ".json").read_text())
    data = np.fromfile(path, dtype="<f8")
    expected = int(np.prod(sidecar["shape"]))
    if data.size != expected:
        raise ValueError(f"{path} holds {data.size} samples, expected {expected}")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path} holds non-finite samples")
    return data.reshape(sidecar["shape"]), sidecar


def write_pgm(path, magnitudes: np.ndarray, floor_db: float = -60.0) -> Path:
    """Write magnitudes as a 16-bit PGM on a dB scale.

    The image is normalized to its peak; values at or below ``floor_db``
    map to black and the peak maps to full scale.  Samples are written
    big-endian as the PGM specification requires.  Non-finite magnitudes,
    and a ``floor_db`` that is not finite and negative, raise
    ``ValueError``.
    """
    if not (np.isfinite(floor_db) and floor_db < 0.0):
        raise ValueError(f"floor_db must be finite and negative, got {floor_db}")
    magnitudes = np.abs(np.asarray(magnitudes, dtype=float))
    if not np.all(np.isfinite(magnitudes)):
        raise ValueError("cannot write non-finite magnitudes as a PGM")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    peak = magnitudes.max()
    if peak <= 0.0:
        scaled = np.zeros_like(magnitudes)
    else:
        with np.errstate(divide="ignore"):
            db = 20.0 * np.log10(magnitudes / peak)
        scaled = (np.clip(db, floor_db, 0.0) - floor_db) / (-floor_db)
    pixels = np.round(scaled * 65535.0).astype(">u2")
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n65535\n"
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii"))
        handle.write(pixels.tobytes())
    return path
