"""Travel-time straightening, annihilation filtering and echo removal."""

import dataclasses

import numpy as np
import pytest
from conftest import compressed_trace, flat_scene, near_traj
from scipy.optimize import minimize_scalar

from sarsep import annihil, kernels
from sarsep.annihil import (
    AnnihilationPlan,
    AnnihilationStage,
    _bounded_minimum,
    _median_rows,
    _row_difference,
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
from sarsep.geom import C_LIGHT, Aperture, CircularTrajectory, compose_velocity
from sarsep.presets import preset_scene
from sarsep.scene import SceneSpec, Target, simulate
from sarsep.signal import fractional_shift, phase_ramp

DS = 0.015
CROSS = np.array([0.0, 1.0, 0.0])


def _parent_row_difference(d, valid_rows, order, ds):
    """The whole-array slow-time difference that ``_row_difference``
    replaces: new arrays, and complex rows divided as complex numbers."""
    start, stop = valid_rows
    out = np.zeros_like(d)
    if order == 1:
        out[start : stop - 1] = (d[start + 1 : stop] - d[start : stop - 1]) / ds
        return out, (start, stop - 1)
    out[start + 1 : stop - 1] = (
        d[start + 2 : stop] - 2.0 * d[start + 1 : stop - 1] + d[start : stop - 2]
    ) / ds**2
    return out, (start + 1, stop - 1)


def _parent_annihilate(trace, plan):
    """The whole-array annihilation filter that the in-place, chunked
    one replaces: full-size ramps, products and differences."""
    count, dt, ds = trace.axis.m + 1, trace.axis.dt, trace.aperture.ds
    valid = trace.valid_rows
    start, stop = valid
    spectra = np.zeros((trace.n + 1, count // 2 + 1), dtype=complex)
    spectra[start:stop] = np.fft.rfft(trace.data[start:stop], axis=1)
    applied = np.zeros(trace.n + 1)
    for stage in plan.stages:
        delays = annihil._track_delays(trace, stage.rho_e, stage.u_vec)
        start, stop = valid
        spectra[start:stop] *= phase_ramp(
            delays[start:stop] - applied[start:stop], count, dt
        )
        applied = delays
        spectra, valid = _parent_row_difference(spectra, valid, stage.order, ds)
    start, stop = valid
    data = np.zeros_like(trace.data)
    data[start:stop] = np.fft.irfft(
        spectra[start:stop] * phase_ramp(-applied[start:stop], count, dt),
        n=count,
        axis=1,
    )
    return trace.replace(data=data, valid_rows=valid, tag="range-compressed")


def _parent_fractional_shift(rows, delays, dt):
    """The whole-array spectral shift that ``fractional_shift`` replaces."""
    rows = np.asarray(rows, dtype=float)
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    count = rows.shape[-1]
    spectra = np.fft.rfft(rows, axis=-1)
    spectra *= phase_ramp(delays.ravel(), count, dt).reshape(delays.shape + (-1,))
    return np.fft.irfft(spectra, n=count, axis=-1)


def mixed_orders():
    """A still and a moving target on rows 2 .. n - 1, and a plan of
    order-1 and order-2 stages, one of them moving, off the targets."""
    still = Target(rho=np.array([0.5, 3.0, 0.0]))
    mover = Target(rho=np.array([-0.5, 1.0, 0.0]), velocity=(1.0, -0.5, 0.0))
    trace = simulate(flat_scene([still, mover]))
    data = trace.data.copy()
    data[:2] = data[-1:] = 0.0
    trace = trace.replace(data=data, valid_rows=(2, trace.n))
    plan = AnnihilationPlan(
        stages=(
            AnnihilationStage(rho_e=(0.4, 2.5, 0.0), order=1),
            AnnihilationStage(
                rho_e=(-0.3, 1.5, 0.0), u_vec=(0.8, -0.3, 0.0), order=2
            ),
            AnnihilationStage(rho_e=np.zeros(3), order=1),
        )
    )
    return trace, plan


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
        assert np.array_equal(out.data[:4], np.diff(data, axis=0) / DS)
        assert np.all(out.data[4] == 0.0)
        assert out.valid_rows == (0, 4)
        assert out.tag == "transformed"

    def test_second_order_is_a_scaled_central_difference(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(5, 9))
        out = slow_diff(compressed_trace(data), order=2)
        expected = (data[2:] - 2.0 * data[1:-1] + data[:-2]) / DS**2
        assert np.array_equal(out.data[1:4], expected)
        assert np.all(out.data[0] == 0.0) and np.all(out.data[4] == 0.0)
        assert out.valid_rows == (1, 4)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("order", [1, 2])
    def test_rows_equal_the_whole_array_formula(self, monkeypatch, chunk, order):
        # Real rows are divided by ds; complex rows are multiplied by 1/ds
        # on their float view, which must equal numpy's complex division.
        monkeypatch.setattr(kernels, "_ROW_CHUNK", chunk)
        monkeypatch.setattr(kernels, "_WORKERS", 3)
        rng = np.random.default_rng(order)
        real = rng.normal(size=(40, 9))
        for data in (real, real + 1j * rng.normal(size=real.shape)):
            expected, valid = _parent_row_difference(data, (3, 37), order, DS)
            out = data.copy()
            assert _row_difference(out, (3, 37), order, DS) == valid
            start, stop = valid
            assert np.array_equal(out[start:stop], expected[start:stop])
            # No chunk writes outside the rows it was given.
            assert np.array_equal(out[:3], data[:3])
            assert np.array_equal(out[37:], data[37:])

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

    def test_matches_the_stage_by_stage_transforms(self):
        trace, plan = mixed_orders()
        # The stages lie off the targets: a stage on a target cancels its
        # echo down to rounding, and two routes to rounding residue need
        # not agree to 1e-10 of its peak.
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


@pytest.fixture(scope="module")
def filter_inputs():
    """(trace, plan) pairs: acceptance 3's dense-aperture stationary and
    mover traces at the exact stage and at the 2.5 m cross-range offset
    stage, example2 with one stage per stationary point, and the mixed
    order-1/order-2 plan on rows 2 .. n - 1."""
    base = preset_scene("single")
    rho_t = np.array([0.0, 5.0, 0.0])
    velocity = compose_velocity(base.frame, 1.0, 0.0)
    dense = {
        name: simulate(
            SceneSpec(
                traj=base.traj,
                rho_o=base.rho_o,
                aperture=Aperture(n=1856, ds=0.015 / 16.0),
                radar=base.radar,
                targets=(Target(rho=rho_t, velocity=v),),
            )
        )
        for name, v in (("stationary", np.zeros(3)), ("mover", velocity))
    }
    stages = {
        "exact": AnnihilationPlan(stages=(AnnihilationStage(rho_e=rho_t),)),
        "offset": AnnihilationPlan(
            stages=(AnnihilationStage(rho_e=rho_t + 2.5 * CROSS),)
        ),
    }
    example2 = preset_scene("example2")
    inputs = {
        f"{name}-{stage}": (trace, plan)
        for name, trace in dense.items()
        for stage, plan in stages.items()
    }
    inputs["example2"] = (
        simulate(example2),
        AnnihilationPlan.for_points([t.rho for t in example2.stationary_targets]),
    )
    inputs["mixed-orders"] = mixed_orders()
    return inputs


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMatchesTheParentAnnihilate:
    """The in-place, chunked filter and shift equal the whole-array
    formulas bit for bit."""

    NAMES = [
        "stationary-exact",
        "stationary-offset",
        "mover-exact",
        "mover-offset",
        "example2",
        "mixed-orders",
    ]

    @pytest.mark.parametrize("name", NAMES)
    def test_annihilate(self, filter_inputs, name):
        trace, plan = filter_inputs[name]
        if name == "example2":
            assert len(plan.stages) == 30
        expected = _parent_annihilate(trace, plan)
        out = annihilate(trace, plan)
        assert out.valid_rows == expected.valid_rows
        assert np.array_equal(out.data, expected.data)

    @pytest.mark.parametrize("name", NAMES)
    def test_fractional_shift(self, filter_inputs, name):
        trace, plan = filter_inputs[name]
        stage = plan.stages[-1]
        delays = annihil._track_delays(trace, stage.rho_e, stage.u_vec)
        dt = trace.axis.dt
        expected = _parent_fractional_shift(trace.data, delays, dt)
        assert np.array_equal(fractional_shift(trace.data, delays, dt), expected)

    def test_any_worker_count_and_chunk_size(self, monkeypatch):
        trace, plan = mixed_orders()
        rows = trace.data[1:]
        delays = np.linspace(-3.0, 3.0, len(rows)) * trace.axis.dt
        expected = (
            _parent_annihilate(trace, plan).data,
            _parent_fractional_shift(rows, delays, trace.axis.dt),
        )
        for chunk in (1, 7, trace.n + 2):
            monkeypatch.setattr(kernels, "_ROW_CHUNK", chunk)
            for workers in (1, 3):
                monkeypatch.setattr(kernels, "_WORKERS", workers)
                out = (
                    annihilate(trace, plan).data,
                    fractional_shift(rows, delays, trace.axis.dt),
                )
                assert all(np.array_equal(a, b) for a, b in zip(out, expected))


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
        assert np.max(np.abs(rep.fd - rep.predicted)) <= 0.05 * scale
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

    @pytest.mark.parametrize("n_rows", [1, 2, 87, 88])
    def test_row_median_equals_numpy_median_bit_for_bit(self, n_rows):
        rows = np.random.default_rng(n_rows).standard_normal((n_rows, 233))
        rows[:, :5] = 0.5  # ties
        expected = np.median(rows, axis=0)
        assert _median_rows(rows).tobytes() == expected.tobytes()

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

    def test_point_window_blocks_equal_a_clipped_gather(self, flat_scene_builder):
        # Points whose rows straddle or miss either edge of the gate read
        # the same block from the zero margins as a clipped gather that
        # zeroes every column outside the gate.
        trace, _, _ = self.crossing_scene(flat_scene_builder)
        half = int(
            np.ceil(annihil.REMOVAL_HALF_WINDOW / (trace.bandwidth * trace.axis.dt))
        )
        width = annihil._window_width(half)
        padded = np.zeros((trace.n + 1, trace.m + 1 + 2 * width))
        padded[:, width:-width] = trace.data
        rows = np.arange(trace.n + 1)[:, None]

        def column(rho):
            delays = annihil._track_delays(trace, rho, None)
            return (delays - trace.t_times[0]) / trace.axis.dt

        step = trace.frame.range_dir
        per_meter = float(np.mean(column(self.POINT + step) - column(self.POINT)))
        seen = set()
        m = trace.m
        for target in (-2 * width, -half, m // 2, m + half, m + 2 * width):
            rho = self.POINT + step * (target - column(self.POINT).mean()) / per_meter
            win = annihil._PointWindow(trace, padded, rho, half)
            centers = np.rint(column(rho)).astype(int)[:, None]
            cols = centers + (np.arange(width) - width // 2)
            inside = (cols >= 0) & (cols <= m)
            block = np.where(inside, trace.data[rows, np.clip(cols, 0, m)], 0.0)
            assert win.spectra.tobytes() == np.fft.rfft(block, axis=-1).tobytes()
            central = inside[:, win.central]
            assert np.array_equal(win.mask, central)
            in_rows = np.broadcast_to(rows, cols.shape)[:, win.central][central]
            assert np.array_equal(win.index[0], in_rows)
            assert np.array_equal(win.index[1], cols[:, win.central][central] + width)
            seen.add((bool(central.any()), bool(central.all())))
        assert seen == {(False, False), (True, False), (True, True)}

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
        # The bandwidth is a trace field, checked when the trace is made,
        # so no trace reaches the removal without one.
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            trace.replace(bandwidth=0.0)

    def test_removing_no_points_is_the_identity(self, flat_scene_builder):
        trace = simulate(flat_scene_builder([tuple(self.POINT)]))
        out = remove_stationary(trace, [])
        assert np.all(out.stationary.data == 0.0)
        np.testing.assert_array_equal(out.rest.data, trace.data)
        assert out.points.shape == (0, 3)
        assert out.stationary.tag == out.rest.tag == "filtered"
        assert out.stationary.meta["part"] == "stationary"
        assert out.rest.meta["part"] == "rest"


def scipy_bounded(func, lo, hi, xatol):
    """(x, fun, nfev) of scipy's bounded Brent search, the reference."""
    res = minimize_scalar(
        func, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
    )
    return res.x, res.fun, res.nfev


class TestBoundedMinimum:
    CASES = {
        "parabola": (lambda x: (x - 0.3) ** 2, -1.0, 1.0, 1e-5),
        "quartic": (lambda x: (x - 2.0) * x * (x + 2.0) ** 2, -3.0, -1.0, 1e-5),
        "cosine": (lambda x: float(np.cos(3.0 * x) + 0.2 * x), -2.0, 2.0, 1e-8),
        "coarse": (lambda x: (x - 0.11) ** 2 + 0.01 * x**4, -0.39, 0.39, 3.9e-3),
        "kink": (lambda x: abs(x - 0.123), -1.0, 1.0, 1e-5),
        "kink-coarse": (lambda x: abs(x + 0.2), -0.39, 0.39, 3.9e-3),
        "two-kinks": (lambda x: abs(x - 0.4) + 0.5 * abs(x + 0.3), -1.0, 1.0, 1e-6),
        "kink-exact": (lambda x: abs(x), -0.39, 0.39, 0.0),
        "flat-bottom": (lambda x: max(abs(x) - 0.2, 0.0), -0.39, 0.39, 0.0),
        "staircase": (lambda x: float(np.floor(100.0 * abs(x - 0.5))), -1.0, 1.0, 0.0),
        "constant": (lambda x: 1.0, -1.0, 1.0, 1e-5),
        "narrow": (lambda x: (x - 0.3) ** 2, 0.0, 1e-6, 1e-5),
        "lower-bound": (lambda x: x, -1.0, 1.0, 1e-5),
        "upper-bound": (lambda x: -np.exp(x), -0.5, 2.0, 1e-5),
        "evaluation-cap": (lambda x: x * x, -1.0, 1.0, 0.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_scipy_bounded_search(self, case):
        func, lo, hi, xatol = self.CASES[case]
        assert _bounded_minimum(func, lo, hi, xatol) == scipy_bounded(
            func, lo, hi, xatol
        )

    def test_bounds_and_the_evaluation_cap(self):
        x = _bounded_minimum(*self.CASES["lower-bound"])[0]
        assert -1.0 < x <= -1.0 + 1e-5
        x = _bounded_minimum(*self.CASES["upper-bound"])[0]
        assert 2.0 - 1e-5 <= x < 2.0
        assert _bounded_minimum(*self.CASES["evaluation-cap"])[2] == 500

    def test_equals_scipy_on_recorded_removal_misfits(
        self, flat_scene_builder, monkeypatch
    ):
        calls = []

        def recorded(func, lo, hi, xatol):
            out = _bounded_minimum(func, lo, hi, xatol)
            calls.append((func, lo, hi, xatol, out))
            return out

        monkeypatch.setattr(annihil, "_bounded_minimum", recorded)
        mixture, _, _ = TestStationaryRemoval.crossing_scene(flat_scene_builder)
        start = TestStationaryRemoval.POINT + np.array([0.0, 0.3, 0.0])
        remove_stationary(mixture, [start])
        assert len(calls) == annihil.REMOVAL_SWEEPS
        for func, lo, hi, xatol, out in calls:
            assert out == scipy_bounded(func, lo, hi, xatol)


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
