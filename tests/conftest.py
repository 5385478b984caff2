"""Shared fixtures and the acceptance verdict reporter."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sarsep.geom import Aperture, LinearTrajectory
from sarsep.presets import preset_scene
from sarsep.scene import Radar, SceneSpec, Target, simulate
from sarsep.signal import FastTimeAxis, TraceMatrix

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

#: Verdicts recorded by the acceptance tests, printed at the end of the run.
ACCEPTANCE_RECORDS: dict[int, tuple[bool, str]] = {}


def record_acceptance(number: int, ok: bool, detail: str) -> bool:
    """Register one acceptance verdict and echo it immediately."""
    ACCEPTANCE_RECORDS[number] = (bool(ok), detail)
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}  [{detail}]")
    return bool(ok)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RECORDS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RECORDS):
        ok, detail = ACCEPTANCE_RECORDS[number]
        line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}  [{detail}]"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def gotcha_scene():
    """The single-target desk-scale scene (circular collection geometry)."""
    return preset_scene("single")


@pytest.fixture(scope="session")
def single_trace(gotcha_scene):
    """Simulated traces of the single-target desk-scale scene."""
    return simulate(gotcha_scene)


def _targets(targets):
    return tuple(
        t if isinstance(t, Target) else Target(rho=np.asarray(t, dtype=float))
        for t in targets
    )


def _track(center):
    return LinearTrajectory(
        center=np.asarray(center, dtype=float),
        tangent=np.array([0.0, 1.0, 0.0]),
        speed=70.0,
    )


def flat_scene(targets, n=16, ds=0.015, radar=None):
    """Small broadside scene on a straight track, for fast unit tests."""
    return SceneSpec(
        traj=_track([1.0e4, 0.0, 0.0]),
        rho_o=np.zeros(3),
        aperture=Aperture(n=n, ds=ds),
        radar=radar if radar is not None else Radar(),
        targets=_targets(targets),
    )


def near_traj(rho_o=np.zeros(3)):
    """Flight line 100 m from ``rho_o``, where delay curvature is strong."""
    return _track(rho_o + np.array([100.0, 0.0, 0.0]))


def near_scene(targets, n=64, rho_o=np.zeros(3)):
    """Broadside scene on the near flight line around ``rho_o``."""
    return SceneSpec(
        traj=near_traj(rho_o),
        rho_o=rho_o,
        targets=_targets(targets),
        aperture=Aperture(n=n, ds=0.015),
        radar=Radar(),
    )


def compressed_trace(data, valid_rows=None):
    """Compressed trace holding ``data`` on the far flight line, in the
    default radar's band."""
    data = np.asarray(data, dtype=float)
    n, m = data.shape[0] - 1, data.shape[1] - 1
    radar = Radar()
    return TraceMatrix(
        data=data,
        aperture=Aperture(n=n, ds=0.015),
        axis=FastTimeAxis(m=m, dt=radar.dt, t_center=0.0),
        traj=_track([1.0e4, 0.0, 0.0]),
        rho_o=np.zeros(3),
        nu0=radar.nu0,
        bandwidth=radar.bandwidth,
        tag="range-compressed",
        valid_rows=valid_rows,
    )


#: Images that ``io.read_image`` and ``io.write_pgm`` must refuse.
NON_FINITE_KINDS = ("one-nan", "all-nan", "one-inf")


def non_finite_image(kind):
    """A 4 x 5 image with one NaN, only NaNs, or one inf sample."""
    image = np.linspace(0.1, 1.0, 20).reshape(4, 5)
    if kind == "all-nan":
        image[:] = np.nan
    else:
        image[1, 2] = np.nan if kind == "one-nan" else np.inf
    return image


@pytest.fixture
def flat_scene_builder():
    return flat_scene
