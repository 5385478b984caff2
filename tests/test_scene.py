"""Scene description and echo simulation."""

import numpy as np
import pytest
from scipy.signal import hilbert

from sarsep.geom import Aperture, delta_tau_moving
from sarsep.scene import (
    KERNEL_CLIP_FACTOR,
    Radar,
    SceneSpec,
    Target,
    simulate,
    simulate_split,
    target_delta_tau,
)
from sarsep.signal import FastTimeAxis


class TestRadar:
    def test_defaults(self):
        radar = Radar()
        assert radar.nu0 == 9.6e9
        assert radar.bandwidth == 622.0e6
        assert radar.dt == pytest.approx(1.0 / (5.0 * 9.6e9), rel=1e-15)
        assert radar.omega0 == pytest.approx(2.0 * np.pi * 9.6e9, rel=1e-15)

    def test_warns_on_wide_bandwidth(self):
        with pytest.warns(RuntimeWarning, match="narrowband"):
            Radar(nu0=1.0e9, bandwidth=0.5e9)

    def test_rejects_sub_nyquist_step(self):
        with pytest.raises(ValueError, match="Nyquist"):
            Radar(dt=1.0e-9)

    @pytest.mark.parametrize(
        "settings", [{"nu0": 0.0}, {"bandwidth": -1.0e6}], ids=["nu0", "bandwidth"]
    )
    def test_rejects_a_nonpositive_carrier_or_bandwidth(self, settings):
        with pytest.raises(ValueError, match="nu0 and bandwidth must be positive"):
            Radar(**settings)

    @pytest.mark.parametrize("dt", [0.0, -1.0e-12])
    def test_rejects_a_nonpositive_step(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            Radar(dt=dt)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["nu0", "bandwidth", "dt"])
    def test_rejects_a_non_finite_setting(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            Radar(**{name: value})


class TestTarget:
    def test_rejects_out_of_plane(self):
        with pytest.raises(ValueError, match="plane"):
            Target(rho=np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="plane"):
            Target(rho=np.zeros(3), velocity=np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize(
        "vectors",
        [{"rho": np.zeros(2)}, {"rho": np.zeros(3), "velocity": np.zeros(4)}],
        ids=["rho", "velocity"],
    )
    def test_rejects_vectors_of_the_wrong_shape(self, vectors):
        with pytest.raises(ValueError, match="3-vectors"):
            Target(**vectors)

    def test_moving_flag(self):
        still = Target(rho=np.array([1.0, 2.0, 0.0]))
        mover = Target(rho=np.zeros(3), velocity=np.array([2.0, -1.0, 0.0]))
        assert not still.moving and mover.moving


class TestSceneSpec:
    def test_partitions_targets_by_motion(self, flat_scene_builder):
        scene = flat_scene_builder(
            [
                Target(rho=np.zeros(3)),
                Target(rho=np.array([1.0, 0.0, 0.0]), velocity=(0.5, 0.0, 0.0)),
            ]
        )
        assert len(scene.stationary_targets) == 1
        assert len(scene.moving_targets) == 1

    @pytest.mark.parametrize(
        "name, value",
        [
            ("rho", (np.nan, 0.0, 0.0)),
            ("velocity", (0.0, np.inf, 0.0)),
            ("amplitude", np.nan),
            ("amplitude", -np.inf),
        ],
    )
    def test_rejects_a_non_finite_field(self, name, value):
        fields = {"rho": np.zeros(3), name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            Target(**fields)

    def test_rejects_a_target_not_slower_than_the_platform(self, flat_scene_builder):
        speed = flat_scene_builder([]).traj.speed
        with pytest.raises(ValueError, match="not below the platform speed"):
            flat_scene_builder([Target(rho=np.zeros(3), velocity=(speed, 0.0, 0.0))])

    def test_warns_beyond_the_far_field_radius(self, flat_scene_builder):
        limit = flat_scene_builder([]).frame.range_L / 20.0
        # Warnings are errors here, so a scene just inside the limit is quiet.
        flat_scene_builder([(0.0, 0.99 * limit, 0.0)])
        with pytest.warns(RuntimeWarning, match="far-field"):
            flat_scene_builder([(0.0, 1.01 * limit, 0.0)])


class TestTargetDeltaTau:
    def test_matches_the_geometry_module(self, flat_scene_builder):
        mover = Target(rho=np.array([2.0, 1.0, 0.0]), velocity=(1.0, -0.5, 0.0))
        scene = flat_scene_builder([mover], n=8)
        table = target_delta_tau(scene)
        expected = delta_tau_moving(
            scene.traj,
            scene.aperture.times,
            mover.rho,
            np.asarray(mover.velocity),
            scene.rho_o,
        )
        np.testing.assert_allclose(np.squeeze(table), expected, rtol=1e-15)


class TestSimulate:
    def test_output_contract(self, single_trace, gotcha_scene):
        trace = single_trace
        assert trace.tag == "range-compressed"
        assert trace.data.shape == (117, trace.m + 1)
        assert trace.meta["kind"] == "simulated"
        assert trace.nu0 == gotcha_scene.radar.nu0
        assert trace.bandwidth == gotcha_scene.radar.bandwidth
        assert trace.meta["targets"] == 1
        assert trace.meta["movers"] == 0

    def test_rows_peak_at_the_differential_delay(self, flat_scene_builder):
        scene = flat_scene_builder([(1.0, 3.0, 0.0)], n=8)
        trace = simulate(scene)
        dtau = np.squeeze(target_delta_tau(scene))
        envelope = np.abs(hilbert(trace.data, axis=1))
        for j in range(trace.n + 1):
            peak_t = trace.t_times[np.argmax(envelope[j])]
            assert abs(peak_t - dtau[j]) <= trace.axis.dt

    def test_superposition_is_exact(self, flat_scene_builder):
        a = Target(rho=np.array([2.0, -1.0, 0.0]), amplitude=0.7)
        b = Target(rho=np.zeros(3), velocity=(1.0, 0.0, 0.0), amplitude=1.3)
        scene_ab = flat_scene_builder([a, b], n=8)
        trace_ab = simulate(scene_ab)
        axis = trace_ab.axis
        trace_a = simulate(flat_scene_builder([a], n=8), axis=axis)
        trace_b = simulate(flat_scene_builder([b], n=8), axis=axis)
        np.testing.assert_allclose(
            trace_ab.data, trace_a.data + trace_b.data, atol=1e-14
        )

    def test_amplitude_scales_linearly(self, flat_scene_builder):
        base = Target(rho=np.array([1.0, 1.0, 0.0]), amplitude=1.0)
        double = Target(rho=np.array([1.0, 1.0, 0.0]), amplitude=2.0)
        axis = simulate(flat_scene_builder([base], n=4)).axis
        t1 = simulate(flat_scene_builder([base], n=4), axis=axis)
        t2 = simulate(flat_scene_builder([double], n=4), axis=axis)
        np.testing.assert_allclose(t2.data, 2.0 * t1.data, rtol=1e-14)

    def test_kernel_clip_zeroes_far_samples(self, flat_scene_builder):
        scene = flat_scene_builder([(0.0, 0.0, 0.0)], n=4)
        trace = simulate(scene)
        dtau = np.squeeze(target_delta_tau(scene))
        clip = KERNEL_CLIP_FACTOR / scene.radar.bandwidth
        far = np.abs(trace.t_times[None, :] - dtau[:, None]) > clip
        assert np.all(trace.data[far] == 0.0)

    def test_explicit_gate_must_cover_all_targets(self, flat_scene_builder):
        scene = flat_scene_builder([(100.0, 0.0, 0.0)], n=4)
        bad_axis = FastTimeAxis(m=64, dt=scene.radar.dt, t_center=0.0)
        with pytest.raises(ValueError, match="outside"):
            simulate(scene, axis=bad_axis)

    def test_empty_scene_rejected(self, flat_scene_builder):
        scene = flat_scene_builder([])
        with pytest.raises(ValueError, match="no targets"):
            simulate(scene)


class TestSimulateSplit:
    def test_parts_sum_to_the_mixture(self, flat_scene_builder):
        scene = flat_scene_builder(
            [
                Target(rho=np.array([2.0, -1.0, 0.0])),
                Target(rho=np.array([-1.0, 1.0, 0.0])),
                Target(rho=np.zeros(3), velocity=(3.0, 1.0, 0.0)),
            ],
            n=8,
        )
        stationary, moving = simulate_split(scene)
        mixture = simulate(scene, axis=stationary.axis)
        np.testing.assert_allclose(
            stationary.data + moving.data, mixture.data, atol=1e-14
        )
        assert stationary.meta["movers"] == 0
        assert moving.meta["movers"] == 1
        assert stationary.axis == moving.axis

    def test_split_without_movers_has_silent_moving_part(self, flat_scene_builder):
        scene = flat_scene_builder([(1.0, 0.0, 0.0)], n=4)
        stationary, moving = simulate_split(scene)
        assert np.all(moving.data == 0.0)

    @pytest.mark.parametrize("velocity", [(0.0, 0.0, 0.0), (3.0, 1.0, 0.0)])
    def test_an_empty_part_is_the_empty_scene_on_the_gate(
        self, flat_scene_builder, velocity
    ):
        scene = flat_scene_builder([Target(rho=np.zeros(3), velocity=velocity)], n=4)
        parts = simulate_split(scene)
        empty = parts[1] if velocity[0] == 0.0 else parts[0]
        expected = simulate(scene.subset(()), axis=empty.axis)
        assert empty.data.tobytes() == expected.data.tobytes()
        assert np.all(expected.data == 0.0)
        assert empty.meta == expected.meta == {
            "kind": "simulated",
            "targets": 0,
            "movers": 0,
        }
        assert empty.valid_rows == expected.valid_rows
        assert empty.tag == expected.tag == "range-compressed"
