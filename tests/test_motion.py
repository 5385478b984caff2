"""Velocity scans, mover location, and the peeling pipeline."""

import numpy as np
import pytest
from conftest import flat_scene, near_scene, near_traj

from sarsep import kernels, motion
from sarsep.geom import (
    LinearTrajectory,
    compose_velocity,
    decompose_velocity,
    make_frame,
)
from sarsep.motion import (
    MoverSeparation,
    VelocityEstimate,
    estimate_cross_speed,
    estimate_location,
    find_speed_peaks,
    g_curve,
    g_perp_curve,
    separate_movers,
    trial_velocity,
)
from sarsep.scene import Target, simulate

pytestmark = pytest.mark.filterwarnings(
    "ignore:.*far-field expansions degrade.*:RuntimeWarning",
    "ignore:.*outside the fast-time gate and contributed zero.*:RuntimeWarning",
)


@pytest.fixture(scope="module")
def near_frame():
    return make_frame(near_traj(), np.zeros(3))


@pytest.fixture(scope="module")
def mover_trace(near_frame):
    u_vec = compose_velocity(near_frame, 2.0, 5.0)
    mover = Target(rho=np.zeros(3), velocity=tuple(u_vec))
    return simulate(near_scene([mover]))


class TestTrialVelocity:
    def test_range_speed_is_exact_and_cross_speed_zero(self, near_frame):
        for u in (-3.0, 0.5, 12.0):
            u_vec = trial_velocity(near_frame, u)
            assert u_vec[2] == 0.0
            u_chk, u_perp_chk = decompose_velocity(near_frame, u_vec)
            assert u_chk == pytest.approx(u, abs=1e-12)
            assert u_perp_chk == pytest.approx(0.0, abs=1e-12)

    def test_vertical_line_of_sight_is_rejected(self):
        overhead = LinearTrajectory(
            center=np.array([0.0, 0.0, 1.0e4]),
            tangent=np.array([0.0, 1.0, 0.0]),
            speed=70.0,
        )
        frame = make_frame(overhead, np.zeros(3))
        with pytest.raises(ValueError, match="vertical"):
            trial_velocity(frame, 1.0)


class TestGCurve:
    def test_peaks_at_the_mover_range_speed(self, mover_trace):
        grid, values = g_curve(mover_trace, u_grid=np.arange(-1.0, 6.25, 0.25))
        assert grid[np.argmax(values)] == pytest.approx(2.0, abs=0.25)

    def test_stationary_scene_peaks_at_zero(self):
        # Keep the targets on the line of sight: a cross-range offset d
        # mimics a range speed V d / L, which is the ambiguity this scan
        # lives with (negligible at long range, large at L = 100 m).
        trace = simulate(near_scene([(1.0, 0.0, 0.0), (-2.0, 0.0, 0.0)]))
        grid, values = g_curve(trace, u_grid=np.arange(-3.0, 3.25, 0.25))
        assert grid[np.argmax(values)] == pytest.approx(0.0, abs=0.25)

    def test_default_grid_spans_the_platform_speed(self, mover_trace):
        grid, values = g_curve(mover_trace)
        assert grid[0] == -70.0 and grid[-1] == 70.0
        assert values.shape == grid.shape

    def test_rejects_raw_traces(self, mover_trace):
        with pytest.raises(ValueError, match="range-compressed"):
            g_curve(mover_trace.replace(tag="raw"))

    def test_estimate_range_speed_returns_the_peak(self, mover_trace):
        peaks = find_speed_peaks(
            *g_curve(mover_trace, u_grid=np.arange(-1.0, 6.25, 0.25)),
            height_factor=1.05,
        )
        assert peaks
        assert peaks[0][0] == pytest.approx(2.0, abs=0.25)


class TestFindSpeedPeaks:
    def test_orders_peaks_by_strength_and_refines(self):
        grid = np.arange(-5.0, 5.25, 0.5)
        values = 1.0 + 10.0 * np.exp(-((grid - 2.2) / 0.7) ** 2)
        values += 5.0 * np.exp(-((grid + 3.0) / 0.7) ** 2)
        peaks = find_speed_peaks(grid, values)
        assert len(peaks) == 2
        assert peaks[0][0] == pytest.approx(2.2, abs=0.1)
        assert peaks[1][0] == pytest.approx(-3.0, abs=0.1)
        assert peaks[0][1] > peaks[1][1]

    def test_flat_curves_yield_no_peaks(self):
        grid = np.arange(-5.0, 5.25, 0.5)
        rng = np.random.default_rng(0)
        values = 1.0 + 0.01 * rng.random(grid.size)
        assert find_speed_peaks(grid, values) == []


def test_scans_do_not_depend_on_the_worker_count(
    mover_trace, near_frame, monkeypatch
):
    # 41 trials: three uneven chunks, each ending on a partial batch.
    grid = np.linspace(-10.0, 10.0, 41)
    curves = {}
    for workers in (1, 3):
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        curves[workers] = (
            g_curve(mover_trace, grid)[1],
            g_perp_curve(mover_trace, np.zeros(3), 2.0, grid)[1],
        )
    for alone, pooled in zip(curves[1], curves[3]):
        assert np.array_equal(alone, pooled)


class TestCrossSpeed:
    def test_minimum_sits_at_the_true_cross_speed(self, mover_trace):
        grid, values = g_perp_curve(
            mover_trace, np.zeros(3), 2.0, u_perp_grid=np.arange(0.0, 10.5, 0.5)
        )
        assert grid[np.argmin(values)] == pytest.approx(5.0, abs=0.5)

    def test_estimate_refines_below_the_grid_step(self, mover_trace):
        u_perp, (grid, values) = estimate_cross_speed(
            mover_trace, np.zeros(3), 2.0, u_perp_grid=np.arange(0.0, 10.5, 0.5)
        )
        assert u_perp == pytest.approx(5.0, abs=0.1)
        assert grid.shape == values.shape

    def test_rejects_raw_traces(self, mover_trace):
        with pytest.raises(ValueError, match="range-compressed"):
            g_perp_curve(mover_trace.replace(tag="raw"), np.zeros(3), 2.0)


class TestEstimateLocation:
    def test_recovers_a_stationary_target(self):
        trace = simulate(near_scene([(2.0, 4.0, 0.0)], n=128))
        loc = estimate_location(trace, np.zeros(3), extent=16.0)
        np.testing.assert_allclose(loc[:2], [2.0, 4.0], atol=0.25)
        assert loc[2] == 0.0

    def test_missing_bandwidth_needs_explicit_spacing(self):
        trace = simulate(near_scene([(1.0, 0.0, 0.0)], n=8))
        stripped = trace.replace(meta={})
        with pytest.raises(ValueError, match="bandwidth"):
            estimate_location(stripped, np.zeros(3))

    def test_flat_envelope_warns(self):
        trace = simulate(near_scene([(1.0, 0.0, 0.0)], n=8))
        flat = trace.replace(data=np.ones_like(trace.data))
        with pytest.warns(RuntimeWarning, match="unreliable"):
            estimate_location(flat, np.zeros(3), extent=2.0)


class TestVelocityEstimate:
    def test_frame_consistency_is_enforced(self, near_frame):
        u_vec = compose_velocity(near_frame, 2.0, 5.0)
        est = VelocityEstimate(
            u=2.0, u_perp=5.0, u_vec=u_vec, rho=np.zeros(3),
            g_score=1.0, frame=near_frame,
        )
        assert est.u == 2.0
        with pytest.raises(ValueError, match="inconsistent"):
            VelocityEstimate(
                u=3.0, u_perp=5.0, u_vec=u_vec, rho=np.zeros(3),
                g_score=1.0, frame=near_frame,
            )

    def test_vector_shapes_are_checked(self):
        with pytest.raises(ValueError, match="3-vectors"):
            VelocityEstimate(
                u=0.0, u_perp=0.0, u_vec=np.zeros(2), rho=np.zeros(3), g_score=0.0
            )

    def test_to_dict_optionally_carries_the_curves(self):
        grid = np.arange(3.0)
        est = VelocityEstimate(
            u=1.0, u_perp=2.0, u_vec=np.array([1.0, 2.0, 0.0]),
            rho=np.zeros(3), g_score=4.0,
            g_samples=(grid, grid**2), g_perp_samples=(grid, grid + 1.0),
        )
        base = est.to_dict()
        assert base["u_meters_per_second"] == 1.0
        assert "g_grid" not in base
        full = est.to_dict(include_curves=True)
        assert full["g_grid"] == [0.0, 1.0, 2.0]
        assert full["g_perp_values"] == [1.0, 2.0, 3.0]


@pytest.fixture(scope="module")
def single_mover_run(near_frame):
    """``separate_movers`` on six near-range points and one mover.

    Returns the trace, the separation, and the ``extent`` keyword of
    each ``locate_stationary`` call (None where the default was used).
    """
    rng = np.random.default_rng(4)
    stationary = [
        tuple(np.append(rng.uniform(-3.0, 3.0, 2), 0.0)) for _ in range(6)
    ]
    u_vec = compose_velocity(near_frame, 3.0, 0.0)
    mover = Target(rho=np.zeros(3), velocity=tuple(u_vec), amplitude=2.0)
    trace = simulate(near_scene(stationary + [mover]))
    extents = []

    def recorded(original):
        def locate(*args, **kwargs):
            extents.append(kwargs.get("extent"))
            return original(*args, **kwargs)

        return locate

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            motion, "locate_stationary", recorded(motion.locate_stationary)
        )
        sep = separate_movers(trace, max_movers=1, extent=12.0)
    return trace, sep, extents


class TestSeparateMovers:
    def test_single_mover_pipeline(self, single_mover_run):
        trace, sep, _ = single_mover_run
        assert isinstance(sep, MoverSeparation)
        assert len(sep.movers) == len(sep.estimates) == 1
        est = sep.estimates[0]
        assert est.u == pytest.approx(3.0, abs=0.5)
        assert abs(est.u_perp) <= 1.0
        np.testing.assert_allclose(est.rho[:2], [0.0, 0.0], atol=0.5)
        assert set(sep.diagnostics) == {
            "windows",
            "g_curves",
            "feasibility",
            "max_shift_frac",
        }
        assert 0.0 < sep.diagnostics["max_shift_frac"] < 1.0
        mix_energy = float(np.sum(trace.data**2))
        resid_energy = float(np.sum(sep.residual.data**2))
        assert resid_energy <= 0.05 * mix_energy

    def test_parts_sum_to_the_input(self, single_mover_run):
        # Both routes: the windowed split standing in for the removal
        # (this fixture), and the removal of a located point.
        removal_trace = simulate(flat_scene([(1.0, 0.0, 0.0)], n=64))
        removal = separate_movers(removal_trace, extent=12.0)
        fallback_trace, fallback, _ = single_mover_run
        for trace, sep in ((fallback_trace, fallback), (removal_trace, removal)):
            assert sep.movers
            parts = sep.low.data + sep.residual.data + sum(m.data for m in sep.movers)
            np.testing.assert_allclose(
                parts, trace.data, rtol=0.0, atol=1e-12 * np.abs(trace.data).max()
            )

    def test_a_trace_without_speed_peaks_yields_no_movers(self):
        scene_trace = simulate(near_scene([(1.0, 0.0, 0.0)], n=16))
        trace = scene_trace.replace(data=np.zeros_like(scene_trace.data))
        sep = separate_movers(trace, max_movers=2)
        assert sep.movers == sep.estimates == ()
        assert len(sep.diagnostics["g_curves"]) == 1
        np.testing.assert_array_equal(sep.low.data + sep.residual.data, trace.data)

    def test_a_negative_mover_count_is_rejected(self):
        trace = simulate(near_scene([(1.0, 0.0, 0.0)], n=16))
        with pytest.raises(ValueError, match="max_movers"):
            separate_movers(trace, max_movers=-1)

    def test_the_preliminary_image_is_formed_once(self, single_mover_run):
        # The near-range image locates no points, so the windowed split
        # stands in for the removal, over the caller's box only.
        assert single_mover_run[2] == [12.0]
