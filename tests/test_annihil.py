"""Travel-time straightening, annihilation filtering and echo removal."""

import dataclasses

import numpy as np
import pytest
from conftest import compressed_trace, near_traj

from sarsep.annihil import (
    AnnihilationPlan,
    AnnihilationStage,
    annihilate,
    cross_range_cell,
    energy_ratio_db,
    locate_stationary,
    predict_annihilation_factor,
    remove_stationary,
    slow_diff,
    tt_forward,
    tt_inverse,
)
from sarsep.geom import C_LIGHT, Aperture, CircularTrajectory
from sarsep.scene import Target, simulate

DS = 0.015


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTravelTimeTransform:
    def test_round_trip_is_identity(self, flat_scene_builder):
        trace = simulate(flat_scene_builder([(0.5, 3.0, 0.0)]))
        gate = trace.axis.m * trace.axis.dt
        u_vec = np.array([0.8, -0.3, 0.0])
        scale = np.max(np.abs(trace.data))
        # The second track lies 0.3 c gate downrange: a range offset of
        # x moves the delay by about 2 x / c, so rows shift 60% of the gate.
        for rho_e in ([0.4, -2.0, 0.0], [-0.3 * C_LIGHT * gate, -2.0, 0.0]):
            back = tt_inverse(tt_forward(trace, rho_e, u_vec), rho_e, u_vec)
            np.testing.assert_allclose(back.data, trace.data, atol=1e-10 * scale)
            assert back.tag == "range-compressed"

    def test_exact_straightening_flattens_the_locus(self, flat_scene_builder):
        rho_t = np.array([0.5, 3.0, 0.0])
        trace = simulate(flat_scene_builder([tuple(rho_t)]))
        flat = tt_forward(trace, rho_t)
        scale = np.max(np.abs(flat.data))
        for j in range(1, trace.n + 1):
            np.testing.assert_allclose(
                flat.data[j], flat.data[0], atol=1e-9 * scale
            )

    def test_requires_a_compressed_trace(self):
        raw = compressed_trace(np.ones((5, 9))).replace(tag="raw")
        with pytest.raises(ValueError, match="range-compressed"):
            tt_forward(raw, np.zeros(3))


class TestSlowDiff:
    def test_first_order_is_a_scaled_forward_difference(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(5, 9))
        out = slow_diff(compressed_trace(data))
        np.testing.assert_allclose(out.data[:4], np.diff(data, axis=0) / DS)
        assert np.all(out.data[4] == 0.0)
        assert out.valid_rows == (0, 4)
        assert out.tag == "transformed"

    def test_second_order_is_a_scaled_central_difference(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(5, 9))
        out = slow_diff(compressed_trace(data), order=2)
        expected = (data[2:] - 2.0 * data[1:-1] + data[:-2]) / DS**2
        np.testing.assert_allclose(out.data[1:4], expected)
        assert np.all(out.data[0] == 0.0) and np.all(out.data[4] == 0.0)
        assert out.valid_rows == (1, 4)

    def test_rejects_unsupported_order(self):
        with pytest.raises(ValueError, match="order must be 1 or 2"):
            slow_diff(compressed_trace(np.ones((5, 9))), order=3)

    def test_rejects_exhausted_rows(self):
        trace = compressed_trace(np.ones((5, 9)), valid_rows=(1, 3))
        with pytest.raises(ValueError, match="need more than 2 valid rows"):
            slow_diff(trace, order=2)


class TestStageAndPlan:
    def test_stage_validation(self):
        with pytest.raises(ValueError, match="3-vectors"):
            AnnihilationStage(rho_e=(1.0, 2.0))
        with pytest.raises(ValueError, match="in-plane"):
            AnnihilationStage(rho_e=np.zeros(3), u_vec=(0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="order"):
            AnnihilationStage(rho_e=np.zeros(3), order=0)

    def test_stage_dict_round_trip(self):
        stage = AnnihilationStage(
            rho_e=(1.0, 2.0, 0.0), u_vec=(0.5, -0.5, 0.0), order=2
        )
        d = stage.to_dict()
        assert set(d) == {"rho_e_meters", "u_vec_meters_per_second", "order"}
        again = AnnihilationStage.from_dict(d)
        np.testing.assert_array_equal(again.rho_e, stage.rho_e)
        np.testing.assert_array_equal(again.u_vec, stage.u_vec)
        assert again.order == 2

    def test_plan_dict_round_trip_and_for_points(self):
        plan = AnnihilationPlan.for_points([(0.0, 0.0, 0.0), (1.0, 2.0, 0.0)])
        assert len(plan.stages) == 2
        assert all(s.order == 1 for s in plan.stages)
        again = AnnihilationPlan.from_dict(plan.to_dict())
        assert len(again.stages) == 2
        np.testing.assert_array_equal(again.stages[1].rho_e, [1.0, 2.0, 0.0])

    def test_empty_plan_rejected(self, flat_scene_builder):
        trace = simulate(flat_scene_builder([(0.0, 1.0, 0.0)], n=4))
        with pytest.raises(ValueError, match="no stages"):
            annihilate(trace, AnnihilationPlan())

    def test_stage_failures_name_the_stage(self, flat_scene_builder):
        trace = simulate(flat_scene_builder([(0.0, 1.0, 0.0)], n=2))
        plan = AnnihilationPlan.for_points([np.zeros(3)] * 3)
        with pytest.raises(ValueError, match="annihilation stage 2 failed"):
            annihilate(trace, plan)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestAnnihilate:
    def test_exact_reference_removes_a_stationary_target(self, flat_scene_builder):
        rho_t = (0.5, 3.0, 0.0)
        trace = simulate(flat_scene_builder([rho_t]))
        plan = AnnihilationPlan.for_points([rho_t])
        out = annihilate(trace, plan)
        assert energy_ratio_db(trace, out) <= -60.0

    def test_mover_survives_by_a_wide_margin(self, flat_scene_builder):
        rho_t = Target(rho=np.array([0.5, 3.0, 0.0]))
        mover = Target(rho=np.zeros(3), velocity=(1.0, 0.0, 0.0))
        both = simulate(flat_scene_builder([rho_t, mover]))
        trace_still = simulate(flat_scene_builder([rho_t]), axis=both.axis)
        trace_mover = simulate(flat_scene_builder([mover]), axis=both.axis)
        plan = AnnihilationPlan.for_points([tuple(rho_t.rho)])
        ratio_still = energy_ratio_db(trace_still, annihilate(trace_still, plan))
        ratio_mover = energy_ratio_db(trace_mover, annihilate(trace_mover, plan))
        assert ratio_mover >= ratio_still + 20.0

    def test_annihilate_is_linear(self, flat_scene_builder):
        a = Target(rho=np.array([0.5, 3.0, 0.0]))
        b = Target(rho=np.array([-0.5, 1.0, 0.0]))
        both = simulate(flat_scene_builder([a, b]))
        trace_a = simulate(flat_scene_builder([a]), axis=both.axis)
        trace_b = simulate(flat_scene_builder([b]), axis=both.axis)
        plan = AnnihilationPlan.for_points([(0.0, 0.0, 0.0)])
        mixed = trace_a.replace(data=2.0 * trace_a.data - 0.5 * trace_b.data)
        lhs = annihilate(mixed, plan).data
        rhs = (
            2.0 * annihilate(trace_a, plan).data
            - 0.5 * annihilate(trace_b, plan).data
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-9 * np.max(np.abs(lhs)))

    def test_valid_rows_shrink_with_the_total_order(self, flat_scene_builder):
        trace = simulate(flat_scene_builder([(0.0, 1.0, 0.0)]))
        plan = AnnihilationPlan(
            stages=(
                AnnihilationStage(rho_e=np.zeros(3), order=1),
                AnnihilationStage(rho_e=np.zeros(3), order=2),
            )
        )
        out = annihilate(trace, plan)
        assert out.valid_rows == (1, trace.n - 1)
        assert out.tag == "range-compressed"

    def test_matches_the_stage_by_stage_transforms(self, flat_scene_builder):
        still = Target(rho=np.array([0.5, 3.0, 0.0]))
        mover = Target(rho=np.array([-0.5, 1.0, 0.0]), velocity=(1.0, -0.5, 0.0))
        trace = simulate(flat_scene_builder([still, mover]))
        data = trace.data.copy()
        data[:2] = data[-1:] = 0.0
        trace = trace.replace(data=data, valid_rows=(2, trace.n))
        # Stages off the targets: a stage on a target cancels its echo
        # down to rounding, and two routes to rounding residue need not
        # agree to 1e-10 of its peak.
        plan = AnnihilationPlan(
            stages=(
                AnnihilationStage(rho_e=(0.4, 2.5, 0.0), order=1),
                AnnihilationStage(
                    rho_e=(-0.3, 1.5, 0.0), u_vec=(0.8, -0.3, 0.0), order=2
                ),
                AnnihilationStage(rho_e=np.zeros(3), order=1),
            )
        )
        expected = trace
        for stage in plan.stages:
            expected = tt_forward(expected, stage.rho_e, stage.u_vec)
            expected = slow_diff(expected, stage.order)
            expected = tt_inverse(expected, stage.rho_e, stage.u_vec)
        out = annihilate(trace, plan)
        assert out.valid_rows == expected.valid_rows == (3, trace.n - 3)
        assert out.tag == "range-compressed"
        np.testing.assert_allclose(
            out.data,
            expected.data,
            rtol=0.0,
            atol=1e-10 * np.max(np.abs(expected.data)),
        )

    def test_matches_a_gate_too_wide_to_wrap(self, flat_scene_builder):
        trace = simulate(flat_scene_builder([(0.0, 1.0, 0.0)]))
        count, gate = trace.m + 1, trace.axis.m * trace.axis.dt
        wide = trace.replace(
            data=np.pad(trace.data, ((0, 0), (count, count))),
            axis=dataclasses.replace(trace.axis, m=3 * count - 1),
        )
        peak = np.max(np.abs(trace.data))
        # A range offset of x moves the delay by about 2 x / c, so the far
        # stage shifts rows by 70% of the gate and the near one by 40%.
        far = np.array([-0.35 * C_LIGHT * gate, 0.0, 0.0])
        near = np.array([0.2 * C_LIGHT * gate, 0.0, 0.0])
        for points in ([far], [near, far]):
            plan = AnnihilationPlan.for_points(points)
            out = annihilate(trace, plan).data
            padded = annihilate(wide, plan).data[:, count : 2 * count]
            # A margin over the echo's tail at the gate edge,
            # exp(-GATE_PAD_FACTOR^2 / 2) = 1.5e-8 of its peak: the only
            # content that wrapping and padding treat differently.
            np.testing.assert_allclose(out, padded, rtol=0.0, atol=1e-6 * peak)


class TestFactorReport:
    @staticmethod
    def gotcha_setup():
        traj = CircularTrajectory(
            center=np.zeros(2), radius=7100.0, height=7300.0,
            angular_rate=70.0 / 7100.0,
        )
        return traj, Aperture(n=16, ds=0.015)

    def test_leading_order_matches_finite_differences(self):
        traj, aperture = self.gotcha_setup()
        target = Target(rho=np.array([0.0, 5.0, 0.0]), velocity=(0.5, 0.5, 0.0))
        rep = predict_annihilation_factor(traj, aperture, target, np.zeros(3))
        assert rep.s.shape == (aperture.n - 1,)
        assert rep.fd.shape == rep.predicted.shape == rep.s.shape
        scale = np.max(np.abs(rep.predicted))
        assert scale > 0.0
        assert rep.max_abs_error <= 0.05 * scale
        assert rep.remainder_bound > 0.0

    def test_stationary_target_at_the_reference_is_silent(self):
        traj, aperture = self.gotcha_setup()
        target = Target(rho=np.array([0.0, 5.0, 0.0]))
        rep = predict_annihilation_factor(
            traj, aperture, target, target.rho
        )
        assert np.all(rep.predicted == 0.0)
        assert np.max(np.abs(rep.fd)) <= 1e-12


@pytest.mark.filterwarnings("error")
class TestStationaryRemoval:
    POINT = np.array([0.5, 1.0, 0.0])

    @staticmethod
    def crossing_scene(flat_scene_builder):
        """A stationary point and a five times brighter mover driving
        through it in range at 2 m/s.

        The mover's delay sweeps +-4/B about the point's over the
        aperture, so at each sample of the point's window it is present
        in about a quarter of the 65 pulses: the median over pulses
        ignores it, where a mean would smear it into the point's echo.
        """
        point = Target(rho=TestStationaryRemoval.POINT)
        mover = Target(
            rho=TestStationaryRemoval.POINT,
            velocity=(2.0, 0.0, 0.0),
            amplitude=5.0,
        )
        scene = flat_scene_builder([point, mover], n=64)
        mixture = simulate(scene)
        stationary = simulate(scene.subset([point]), axis=mixture.axis)
        moving = simulate(scene.subset([mover]), axis=mixture.axis)
        return mixture, stationary, moving

    def test_a_point_at_its_true_location_is_removed(self, flat_scene_builder):
        mixture, stationary, moving = self.crossing_scene(flat_scene_builder)
        out = remove_stationary(mixture, [self.POINT])
        leftover = np.sum((out.rest.data - moving.data) ** 2)
        assert 10.0 * np.log10(leftover / np.sum(stationary.data**2)) <= -30.0
        np.testing.assert_allclose(out.points, [self.POINT], atol=0.01)

    def test_a_crossing_mover_survives(self, flat_scene_builder):
        mixture, stationary, moving = self.crossing_scene(flat_scene_builder)
        rest = remove_stationary(mixture, [self.POINT]).rest.data
        corr = abs(np.vdot(rest, moving.data)) / (
            np.linalg.norm(rest) * np.linalg.norm(moving.data)
        )
        assert corr >= 0.99

    def test_parts_sum_to_the_input(self, flat_scene_builder):
        mixture, _, _ = self.crossing_scene(flat_scene_builder)
        out = remove_stationary(mixture, [self.POINT + np.array([0.0, 0.2, 0.0])])
        np.testing.assert_allclose(
            out.stationary.data + out.rest.data,
            mixture.data,
            rtol=0.0,
            atol=1e-12 * np.max(np.abs(mixture.data)),
        )
        assert out.stationary.tag == out.rest.tag == "filtered"

    def test_refinement_pulls_an_offset_point_back(self, flat_scene_builder):
        mixture, _, _ = self.crossing_scene(flat_scene_builder)
        start = self.POINT + np.array([0.0, 0.3, 0.0])
        out = remove_stationary(mixture, [start])
        assert np.linalg.norm(out.points[0] - self.POINT) <= 0.03

    def test_located_points_sit_on_the_targets(self, flat_scene_builder):
        targets = [(0.5, 1.0, 0.0), (-1.0, -2.0, 0.0)]
        trace = simulate(flat_scene_builder(targets, n=64))
        found = locate_stationary(trace, extent=8.0)
        for target in targets:
            assert np.min(np.linalg.norm(found - target, axis=1)) <= 0.15

    def test_unresolved_geometry_yields_no_points(self, flat_scene_builder):
        # 100 m from the scene, the cross-range cell is about 2 cm, far
        # below the c/2B pixel of the preliminary image.
        scene = flat_scene_builder([tuple(self.POINT)], n=64)
        trace = simulate(dataclasses.replace(scene, traj=near_traj()))
        assert cross_range_cell(trace) < 0.05
        assert locate_stationary(trace, extent=8.0).shape == (0, 3)

    def test_requires_a_compressed_trace_and_bandwidth(self, flat_scene_builder):
        trace = simulate(flat_scene_builder([tuple(self.POINT)]))
        with pytest.raises(ValueError, match="range-compressed"):
            remove_stationary(trace.replace(tag="raw"), [self.POINT])
        with pytest.raises(ValueError, match="bandwidth"):
            remove_stationary(trace.replace(meta={}), [self.POINT])

    def test_removing_no_points_is_the_identity(self, flat_scene_builder):
        trace = simulate(flat_scene_builder([tuple(self.POINT)])).replace(meta={})
        out = remove_stationary(trace, [])
        assert np.all(out.stationary.data == 0.0)
        np.testing.assert_array_equal(out.rest.data, trace.data)
        assert out.points.shape == (0, 3)
        assert out.stationary.tag == out.rest.tag == "filtered"
        assert out.stationary.meta["part"] == "stationary"
        assert out.rest.meta["part"] == "rest"


class TestEnergyRatio:
    def test_identical_traces_sit_at_zero_db(self):
        trace = compressed_trace(np.ones((5, 9)))
        assert energy_ratio_db(trace, trace) == 0.0

    def test_silent_output_reports_minus_infinity(self):
        trace = compressed_trace(np.ones((5, 9)))
        silent = trace.replace(data=np.zeros_like(trace.data))
        assert energy_ratio_db(trace, silent) == -np.inf

    def test_silent_reference_is_rejected(self):
        silent = compressed_trace(np.zeros((5, 9)))
        loud = silent.replace(data=np.ones_like(silent.data))
        with pytest.raises(ValueError, match="zero energy"):
            energy_ratio_db(silent, loud)

    def test_ratio_ignores_rows_outside_the_valid_band(self):
        before = compressed_trace(np.ones((5, 9)))
        data = np.zeros((5, 9))
        data[1:3] = 2.0
        after = compressed_trace(data, valid_rows=(1, 3))
        assert energy_ratio_db(before, after) == pytest.approx(
            10.0 * np.log10(4.0)
        )
