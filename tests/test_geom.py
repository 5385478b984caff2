"""Geometry: trajectories, travel times, and the velocity frame."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sarsep.geom import (
    C_LIGHT,
    _unit,
    Aperture,
    CircularTrajectory,
    LinearTrajectory,
    compose_velocity,
    decompose_velocity,
    delta_tau_moving,
    make_frame,
    travel_time,
)

# Frozen reference values for the desk-scale circular collection.
TAU_HALF_SECOND = 6.793568994367224e-05  # tau(s=0.5) of the target at (0, 5, 0)
RANGE_L = 10183.319694480773
M_HAT = (0.6972186097474783, 0.0, 0.7168585705854355)


def gotcha_traj():
    return CircularTrajectory(
        center=np.zeros(2),
        radius=7100.0,
        height=7300.0,
        angular_rate=70.0 / 7100.0,
    )


class TestLinearTrajectory:
    def test_position_is_affine_in_slow_time(self):
        traj = LinearTrajectory(
            center=np.array([1.0, 2.0, 3.0]),
            tangent=np.array([0.0, 1.0, 0.0]),
            speed=50.0,
        )
        np.testing.assert_allclose(
            traj.position(np.array([0.0, 2.0])),
            [[1.0, 2.0, 3.0], [1.0, 102.0, 3.0]],
        )

    def test_tangent_is_constant(self):
        traj = LinearTrajectory(
            center=np.zeros(3), tangent=np.array([1.0, 0.0, 0.0]), speed=1.0
        )
        tangents = traj.tangent_at(np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(tangents, [[1.0, 0.0, 0.0]] * 3)

    def test_rejects_non_unit_tangent(self):
        with pytest.raises(ValueError, match="unit vector"):
            LinearTrajectory(
                center=np.zeros(3), tangent=np.array([0.0, 2.0, 0.0]), speed=1.0
            )

    @pytest.mark.parametrize(
        "name, value",
        [
            ("center", (0.0, np.nan, 0.0)),
            ("tangent", (np.nan, 1.0, 0.0)),
            ("speed", np.nan),
            ("speed", np.inf),
        ],
    )
    def test_rejects_a_non_finite_field(self, name, value):
        fields = {"center": np.zeros(3), "tangent": (0.0, 1.0, 0.0), "speed": 1.0}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LinearTrajectory(**{**fields, name: value})

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError, match="speed"):
            LinearTrajectory(
                center=np.zeros(3), tangent=np.array([0.0, 1.0, 0.0]), speed=0.0
            )


class TestCircularTrajectory:
    def test_position_stays_on_the_circle(self):
        traj = gotcha_traj()
        pos = traj.position(np.linspace(-1.0, 1.0, 7))
        radii = np.hypot(pos[:, 0], pos[:, 1])
        np.testing.assert_allclose(radii, 7100.0, rtol=1e-12)
        np.testing.assert_allclose(pos[:, 2], 7300.0)

    def test_speed_is_rate_times_radius(self):
        assert gotcha_traj().speed == pytest.approx(70.0, rel=1e-12)

    def test_tangent_matches_position_derivative(self):
        traj = gotcha_traj()
        s = np.array([0.3])
        h = 1e-6
        fd = (traj.position(s + h) - traj.position(s - h)) / (2.0 * h)
        np.testing.assert_allclose(
            traj.tangent_at(s)[0], fd[0] / traj.speed, atol=1e-8
        )

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError, match="angular_rate"):
            CircularTrajectory(
                center=np.zeros(2), radius=1.0, height=1.0, angular_rate=0.0
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "name", ["center", "radius", "height", "angular_rate", "origin_angle"]
    )
    def test_rejects_a_non_finite_field(self, name, value):
        fields = {"center": np.zeros(2), "radius": 1.0, "height": 1.0}
        fields.update(angular_rate=0.1, origin_angle=0.0)
        fields[name] = np.full(2, value) if name == "center" else value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            CircularTrajectory(**fields)

    @pytest.mark.parametrize("radius", [0.0, -5.0])
    def test_rejects_nonpositive_radius(self, radius):
        with pytest.raises(ValueError, match="radius"):
            CircularTrajectory(
                center=np.zeros(2), radius=radius, height=1.0, angular_rate=0.1
            )


class TestAperture:
    def test_times_are_symmetric(self):
        ap = Aperture(n=4, ds=0.5)
        np.testing.assert_allclose(ap.times, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError, match="even"):
            Aperture(n=5, ds=0.1)

    @pytest.mark.parametrize("ds", [0.0, -0.1])
    def test_rejects_nonpositive_step(self, ds):
        with pytest.raises(ValueError, match="ds"):
            Aperture(n=4, ds=ds)

    @pytest.mark.parametrize("ds", [np.nan, np.inf])
    def test_rejects_a_non_finite_step(self, ds):
        with pytest.raises(ValueError, match="ds must be finite"):
            Aperture(n=4, ds=ds)


class TestTravelTime:
    def test_frozen_reference_value(self):
        tau = travel_time(gotcha_traj(), 0.5, np.array([0.0, 5.0, 0.0]))
        assert tau == pytest.approx(TAU_HALF_SECOND, rel=1e-14)

    def test_range_from_reference_travel_time(self):
        tau0 = travel_time(gotcha_traj(), 0.0, np.zeros(3))
        assert tau0 * C_LIGHT / 2.0 == pytest.approx(RANGE_L, rel=1e-14)

    def test_vectorizes_over_slow_time(self):
        traj = gotcha_traj()
        s = np.array([-0.5, 0.0, 0.5])
        taus = travel_time(traj, s, np.zeros(3))
        singles = [float(travel_time(traj, si, np.zeros(3))) for si in s]
        np.testing.assert_allclose(taus, singles, rtol=1e-15)


class TestDeltaTau:
    def test_is_travel_time_difference(self):
        traj = gotcha_traj()
        rho = np.array([3.0, -4.0, 0.0])
        s = np.array([-0.4, 0.1, 0.6])
        expected = travel_time(traj, s, rho) - travel_time(traj, s, np.zeros(3))
        np.testing.assert_allclose(
            delta_tau_moving(traj, s, rho, np.zeros(3), np.zeros(3)),
            expected,
            rtol=1e-15,
        )

    def test_moving_with_zero_velocity_matches_stationary(self):
        # Bit for bit, over a 2-D slow-time array and an off-origin
        # reference point.
        traj = gotcha_traj()
        rho = np.array([3.0, -4.0, 0.0])
        rho_o = np.array([-2.0, 1.5, 0.0])
        s = np.array([[-0.4, 0.1, 0.6], [-0.05, 0.0, 0.35]])
        expected = travel_time(traj, s, rho) - travel_time(traj, s, rho_o)
        np.testing.assert_array_equal(
            delta_tau_moving(traj, s, rho, np.zeros(3), rho_o), expected
        )

    def test_moving_tracks_the_drifting_position(self):
        traj = gotcha_traj()
        rho = np.array([1.0, 2.0, 0.0])
        u = np.array([3.0, -1.0, 0.0])
        s = np.array([0.25])
        expected = travel_time(traj, s, rho + s[0] * u) - travel_time(
            traj, s, np.zeros(3)
        )
        np.testing.assert_allclose(
            delta_tau_moving(traj, s, rho, u, np.zeros(3)), expected, rtol=1e-15
        )


class TestViewFrame:
    def test_frame_axes_frozen_values(self):
        frame = make_frame(gotcha_traj(), np.zeros(3))
        np.testing.assert_allclose(frame.m_hat, M_HAT, rtol=1e-12)
        np.testing.assert_allclose(frame.t_hat, [0.0, 1.0, 0.0], atol=1e-15)
        assert frame.range_L == pytest.approx(RANGE_L, rel=1e-14)
        assert frame.speed == pytest.approx(70.0)

    def test_projector_is_symmetric_idempotent(self):
        frame = make_frame(gotcha_traj(), np.zeros(3))
        p = frame.projector
        np.testing.assert_allclose(p, p.T, atol=1e-15)
        np.testing.assert_allclose(p @ p, p, atol=1e-14)
        np.testing.assert_allclose(p @ frame.m_hat, 0.0, atol=1e-15)

    def test_ground_directions_are_unit(self):
        frame = make_frame(gotcha_traj(), np.array([2.0, -7.0, 0.0]))
        assert np.linalg.norm(frame.range_dir) == pytest.approx(1.0)
        assert np.linalg.norm(frame.cross_dir) == pytest.approx(1.0)
        assert frame.range_dir[2] == 0.0 and frame.cross_dir[2] == 0.0

    def test_rejects_out_of_plane_reference(self):
        with pytest.raises(ValueError, match="plane"):
            make_frame(gotcha_traj(), np.array([0.0, 0.0, 1.0]))

    def test_rejects_a_reference_that_is_not_a_3_vector(self):
        with pytest.raises(ValueError, match="3-vector"):
            make_frame(gotcha_traj(), np.zeros(2))

    def test_rejects_a_reference_at_the_platform(self):
        traj = LinearTrajectory(
            center=np.zeros(3), tangent=np.array([0.0, 1.0, 0.0]), speed=1.0
        )
        with pytest.raises(ValueError, match="coincides with the platform"):
            make_frame(traj, np.zeros(3))

    def test_a_zero_vector_has_no_direction(self):
        with pytest.raises(ValueError, match="zero vector"):
            _unit(np.zeros(3))


class TestVelocityDecomposition:
    @given(
        u=st.floats(-30.0, 30.0),
        u_perp=st.floats(-30.0, 30.0),
    )
    def test_compose_then_decompose_round_trip(self, u, u_perp):
        frame = make_frame(gotcha_traj(), np.zeros(3))
        u_vec = compose_velocity(frame, u, u_perp)
        assert u_vec[2] == 0.0
        u_back, u_perp_back = decompose_velocity(frame, u_vec)
        scale = 1.0 + abs(u) + abs(u_perp)
        assert abs(u_back - u) <= 1e-10 * scale
        assert abs(u_perp_back - u_perp) <= 1e-10 * scale

    def test_decompose_rejects_out_of_plane_velocity(self):
        frame = make_frame(gotcha_traj(), np.zeros(3))
        with pytest.raises(ValueError):
            decompose_velocity(frame, np.array([1.0, 1.0, 1.0]))

    def test_decompose_rejects_a_velocity_that_is_not_a_3_vector(self):
        frame = make_frame(gotcha_traj(), np.zeros(3))
        with pytest.raises(ValueError, match="3-vector"):
            decompose_velocity(frame, np.array([1.0, 1.0]))

    def test_compose_rejects_a_platform_flying_at_the_reference(self):
        # The ground line of sight and the flight tangent are parallel.
        traj = LinearTrajectory(
            center=np.array([100.0, 0.0, 10.0]),
            tangent=np.array([1.0, 0.0, 0.0]),
            speed=1.0,
        )
        frame = make_frame(traj, np.zeros(3))
        with pytest.raises(ValueError, match="degenerate frame"):
            compose_velocity(frame, 1.0, 0.0)

    @pytest.mark.parametrize(
        "u, u_perp",
        [
            (np.linspace(-70.0, 70.0, 281), np.linspace(30.0, -30.0, 281)),
            (2.0, np.arange(-70.0, 70.25, 0.5)),
            (np.array([[1.5, -3.0], [0.25, 9.0]]), 4.0),
        ],
    )
    def test_an_array_call_equals_the_scalar_calls(self, u, u_perp):
        frame = make_frame(gotcha_traj(), np.array([2.0, -7.0, 0.0]))
        u, u_perp = np.broadcast_arrays(u, u_perp)
        velocities = compose_velocity(frame, u, u_perp)
        assert velocities.shape == u.shape + (3,)
        for index in np.ndindex(u.shape):
            scalar = compose_velocity(frame, float(u[index]), float(u_perp[index]))
            np.testing.assert_array_equal(velocities[index], scalar)

    def test_zero_dimensional_speeds_give_one_vector(self):
        frame = make_frame(gotcha_traj(), np.zeros(3))
        velocity = compose_velocity(frame, np.array(1.5), np.array(-2.0))
        assert velocity.shape == (3,)
        np.testing.assert_array_equal(velocity, compose_velocity(frame, 1.5, -2.0))

    def test_platform_like_velocity_has_zero_range_speed(self):
        frame = make_frame(gotcha_traj(), np.zeros(3))
        u, u_perp = decompose_velocity(frame, np.array([0.0, 70.0, 0.0]))
        assert u == pytest.approx(0.0, abs=1e-12)
        assert u_perp == pytest.approx(70.0, rel=1e-12)
