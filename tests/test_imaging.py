"""Backprojection imaging, peak picking and extraction, and lobe measurement."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import maximum_filter
from scipy.signal import find_peaks
from conftest import near_scene, near_traj

from sarsep import kernels
from sarsep.geom import C_LIGHT, compose_velocity, make_frame
from sarsep.imaging import (
    _BLOCK,
    ImageGrid,
    _local_maxima,
    _refine_peaks,
    SarImage,
    half_power_width,
    image,
    image_compensated,
    image_points,
    peak_extract,
    profile,
)
from sarsep.kernels import backproject_block
from sarsep.scene import Radar, Target, simulate

pytestmark = pytest.mark.filterwarnings(
    "ignore:.*outside the fast-time gate and contributed zero.*:RuntimeWarning",
)


@pytest.fixture(scope="module")
def near_trace():
    return simulate(near_scene([(2.0, 4.0, 0.0)], n=128))


class TestImageGrid:
    def test_axes_are_centered_with_odd_counts(self):
        grid = ImageGrid(
            center=np.array([1.0, 2.0, 0.0]), extent_x=4.0, extent_y=2.0,
            spacing=0.5,
        )
        assert grid.shape == (5, 9)
        assert grid.x_axis[4] == 1.0 and grid.y_axis[2] == 2.0
        np.testing.assert_allclose(np.diff(grid.x_axis), 0.5)

    def test_points_vary_x_fastest(self):
        grid = ImageGrid(
            center=np.zeros(3), extent_x=2.0, extent_y=2.0, spacing=1.0
        )
        points = grid.points()
        assert points.shape == (9, 3)
        np.testing.assert_array_equal(points[0], [-1.0, -1.0, 0.0])
        np.testing.assert_array_equal(points[1], [0.0, -1.0, 0.0])
        np.testing.assert_array_equal(points[3], [-1.0, 0.0, 0.0])
        assert np.all(points[:, 2] == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="z = 0"):
            ImageGrid(
                center=np.array([0.0, 0.0, 1.0]), extent_x=1.0, extent_y=1.0,
                spacing=0.1,
            )
        with pytest.raises(ValueError, match="positive"):
            ImageGrid(center=np.zeros(3), extent_x=1.0, extent_y=1.0, spacing=0.0)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("field", ["extent_x", "extent_y", "spacing"])
    def test_rejects_non_finite_sizes(self, field, value):
        sizes = {"extent_x": 1.0, "extent_y": 1.0, "spacing": 0.1, field: value}
        with pytest.raises(ValueError, match="positive and finite"):
            ImageGrid(center=np.zeros(3), **sizes)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_a_non_finite_center(self, value):
        with pytest.raises(ValueError, match="center must be finite"):
            ImageGrid(
                center=np.array([value, 0.0, 0.0]), extent_x=1.0, extent_y=1.0,
                spacing=0.1,
            )


class TestImaging:
    def test_peak_sits_on_the_target(self, near_trace):
        grid = ImageGrid(
            center=np.zeros(3), extent_x=12.0, extent_y=12.0, spacing=0.25
        )
        img = image(near_trace, grid)
        position, value = peak_extract(img)
        np.testing.assert_allclose(position[:2], [2.0, 4.0], atol=0.25)
        assert value == pytest.approx(img.peak_value())

    def test_plain_image_equals_zero_velocity_compensation(self, near_trace):
        grid = ImageGrid(
            center=np.array([2.0, 4.0, 0.0]), extent_x=2.0, extent_y=2.0,
            spacing=0.5,
        )
        plain = image(near_trace, grid)
        comp = image_compensated(near_trace, grid, np.zeros(3))
        np.testing.assert_array_equal(plain.envelope, comp.envelope)
        assert plain.missed == comp.missed

    def test_compensated_image_focuses_a_mover(self):
        frame = make_frame(near_traj(), np.zeros(3))
        u_vec = compose_velocity(frame, 2.0, 0.0)
        mover = Target(rho=np.array([1.0, 2.0, 0.0]), velocity=tuple(u_vec))
        trace = simulate(near_scene([mover], n=128))
        grid = ImageGrid(
            center=np.array([1.0, 2.0, 0.0]), extent_x=4.0, extent_y=4.0,
            spacing=0.25,
        )
        focused = image_compensated(trace, grid, u_vec)
        blurred = image(trace, grid)
        assert focused.peak_value() > 2.0 * blurred.peak_value()
        np.testing.assert_array_equal(focused.u_vec, u_vec)

    def test_image_points_is_linear(self):
        a = Target(rho=np.array([1.0, 0.0, 0.0]))
        b = Target(rho=np.array([-1.0, 2.0, 0.0]))
        both = simulate(near_scene([a, b], n=32))
        trace_a = simulate(near_scene([a], n=32), axis=both.axis)
        trace_b = simulate(near_scene([b], n=32), axis=both.axis)
        points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 2.0, 0.0]])
        mixed = trace_a.replace(data=1.5 * trace_a.data - 0.5 * trace_b.data)
        v_mixed, _ = image_points(mixed, points)
        v_a, _ = image_points(trace_a, points)
        v_b, _ = image_points(trace_b, points)
        np.testing.assert_allclose(
            v_mixed, 1.5 * v_a - 0.5 * v_b,
            atol=1e-9 * np.max(np.abs(v_a)),
        )

    def test_image_points_matches_per_point_norm_delays(self):
        # Far from the origin, on a moving track, with one partial block
        # and 40 points whose every sample falls outside the gate.
        rho_o = np.array([8000.0, 6000.0, 0.0])
        frame = make_frame(near_traj(rho_o), rho_o)
        u_vec = compose_velocity(frame, 2.0, 1.0)
        mover = Target(rho=rho_o + np.array([1.0, 2.0, 0.0]), velocity=tuple(u_vec))
        full = simulate(near_scene([mover], n=32, rho_o=rho_o))
        start, stop = 2, full.n - 1
        data = np.zeros_like(full.data)
        data[start:stop] = full.data[start:stop]
        trace = full.replace(data=data, valid_rows=(start, stop))
        points = np.zeros((_BLOCK + 1, 3))
        points[:, :2] = rho_o[:2] + np.random.default_rng(3).uniform(
            -1.0, 1.0, (_BLOCK + 1, 2)
        )
        points[-1] = mover.rho  # the partial block's one point
        points[:40, 0] += 500.0  # 500 m down-range: every sample misses

        # Reference: analytic rows of every pulse, then per-point delays
        # from np.linalg.norm, one point per kernel call.
        spectra = np.fft.rfft(trace.data, axis=1)
        padded = np.zeros((trace.n + 1, 4 * (trace.m + 1)), dtype=complex)
        padded[:, 0] = spectra[:, 0]
        padded[:, 1 : spectra.shape[1]] = 2.0 * spectra[:, 1:]
        rows = (np.fft.ifft(padded, axis=1) * 4)[start:stop]
        s = trace.s_times[start:stop]
        platform = trace.traj.position(s)
        tau_ref = 2.0 * np.linalg.norm(platform - rho_o, axis=-1) / C_LIGHT
        expected = np.empty(points.shape[0], dtype=complex)
        expected_missed = np.empty(points.shape[0], dtype=np.int64)
        for i, point in enumerate(points):
            track = point + s[:, None] * u_vec
            dist = np.linalg.norm(platform - track, axis=-1)
            dtau = (2.0 * dist / C_LIGHT - tau_ref)[:, None]
            acc, missed = backproject_block(
                rows, float(trace.t_times[0]), trace.axis.dt / 4, dtau
            )
            expected[i], expected_missed[i] = acc[0], missed[0]
        assert np.all(expected_missed[:40] == stop - start)
        assert expected_missed[-1] == 0 and expected_missed[40:].min() == 0

        values, missed = image_points(trace, points, u_vec)
        assert missed == expected_missed.sum()
        np.testing.assert_allclose(
            values, expected, rtol=0, atol=1e-9 * np.abs(expected).max()
        )
        assert np.all(values[:40] == 0.0)

    def test_missed_samples_warn(self):
        trace = simulate(near_scene([(1.0, 0.0, 0.0)], n=8))
        grid = ImageGrid(
            center=np.zeros(3), extent_x=40.0, extent_y=2.0, spacing=1.0
        )
        with pytest.warns(RuntimeWarning, match="outside the fast-time gate"):
            img = image(trace, grid)
        assert img.missed > 0

    def test_velocity_must_be_in_plane(self, near_trace):
        grid = ImageGrid(
            center=np.zeros(3), extent_x=2.0, extent_y=2.0, spacing=0.5
        )
        with pytest.raises(ValueError, match="in-plane"):
            image_compensated(near_trace, grid, np.array([0.0, 0.0, 1.0]))

    def test_rejects_raw_traces(self, near_trace):
        with pytest.raises(ValueError, match="range-compressed"):
            image_points(near_trace.replace(tag="raw"), np.zeros((1, 3)))


class TestPeakExtract:
    @staticmethod
    def synthetic_image(envelope, spacing=1.0):
        envelope = np.asarray(envelope, dtype=float)
        ny, nx = envelope.shape
        grid = ImageGrid(
            center=np.zeros(3),
            extent_x=spacing * (nx - 1),
            extent_y=spacing * (ny - 1),
            spacing=spacing,
        )
        assert grid.shape == envelope.shape
        return SarImage(grid=grid, envelope=envelope, u_vec=np.zeros(3), missed=0)

    def test_finds_separated_peaks_strongest_first(self):
        env = np.zeros((11, 11))
        env[2, 3] = 5.0
        env[8, 8] = 9.0
        img = self.synthetic_image(env)
        position, value = peak_extract(img)
        assert value == 9.0
        np.testing.assert_allclose(position, [3.0, 3.0, 0.0])

    def test_subpixel_refinement_beats_the_grid(self):
        x = np.arange(11.0)
        bump = np.exp(-0.5 * ((x - 5.3) / 1.2) ** 2)
        env = np.outer(np.exp(-0.5 * ((x - 5.0) / 1.2) ** 2), bump)
        img = self.synthetic_image(env)
        position, _ = peak_extract(img)
        assert abs(position[0] - 0.3) < 0.05
        assert abs(position[1] - 0.0) < 0.05

    def test_border_peak_keeps_its_pixel_center_on_that_axis(self):
        x = np.arange(11.0)
        rising = np.exp(-0.5 * ((x - 12.0) / 3.0) ** 2)
        env = np.outer(np.exp(-0.5 * ((x - 5.3) / 1.2) ** 2), rising)
        img = self.synthetic_image(env)
        position, value = peak_extract(img)
        assert value == env.max()
        assert position[0] == img.grid.x_axis[-1]
        assert abs(position[1] - 0.3) < 0.05

    def test_zero_image_is_rejected(self):
        img = self.synthetic_image(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="zero everywhere"):
            peak_extract(img)


def tie_free(shape):
    elements = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    return arrays(np.float64, shape, elements=elements, unique=True)


class TestLocalMaxima:
    """One peak rule for the g(u) scan and the preliminary image."""

    @given(tie_free(st.integers(0, 40)), st.floats(-1.0, 1.0))
    def test_1d_matches_find_peaks_above_zero(self, values, floor):
        idx, _ = find_peaks(values, height=floor)
        idx = idx[values[idx] > 0.0]
        expected = idx[np.argsort(-values[idx])]
        (got,) = _local_maxima(values, floor)
        np.testing.assert_array_equal(got, expected)

    @given(
        tie_free(st.tuples(st.integers(1, 9), st.integers(1, 9))),
        st.floats(-1.0, 1.0),
    )
    def test_2d_matches_a_masked_3x3_maximum_filter(self, env, floor):
        is_peak = (env >= maximum_filter(env, size=3, mode="constant")) & (env >= floor)
        is_peak[[0, -1], :] = is_peak[:, [0, -1]] = False
        iy, ix = np.nonzero(is_peak & (env > 0.0))
        order = np.argsort(env[iy, ix], kind="stable")[::-1]
        got = _local_maxima(env, floor)
        np.testing.assert_array_equal(got[0], iy[order])
        np.testing.assert_array_equal(got[1], ix[order])

    def test_all_zeros_has_no_peak(self):
        assert _local_maxima(np.zeros(9), 0.0)[0].size == 0
        assert _local_maxima(np.zeros((5, 5)), 0.0)[0].size == 0

    def test_a_curve_below_the_floor_has_no_peak(self):
        bump = np.exp(-0.5 * (np.arange(11.0) - 5.0) ** 2)
        assert _local_maxima(bump, 2.0)[0].size == 0
        assert _local_maxima(bump, 0.5)[0].tolist() == [5]

    def test_no_interior_sample_means_no_peak(self):
        assert _local_maxima(np.array([1.0, 2.0]), 0.0)[0].size == 0
        row = np.exp(-0.5 * (np.arange(9.0) - 4.0) ** 2)
        iy, ix = _local_maxima(np.vstack([row, row]), 0.0)
        assert iy.size == ix.size == 0

    def test_a_two_sample_plateau_lists_both_samples(self):
        values = np.array([0.0, 1.0, 3.0, 3.0, 1.0, 0.0])
        # find_peaks keeps one sample of a flat top; this rule keeps all.
        assert find_peaks(values)[0].tolist() == [2]
        assert _local_maxima(values, 0.0)[0].tolist() == [3, 2]


class TestRefinePeaks:
    def test_interior_samples_move_to_the_vertex(self):
        grid = np.arange(9.0) * 0.5
        values = 4.0 - (grid - 1.8) ** 2
        (u,) = _refine_peaks(values, (np.array([4]),), (grid,), (0.5,))[:, 0]
        assert u == pytest.approx(1.8, abs=1e-12)

    def test_border_samples_keep_their_coordinate(self):
        grid = np.arange(5.0)
        values = np.array([5.0, 4.0, 1.0, 4.0, 5.0])
        got = _refine_peaks(values, (np.array([0, 4]),), (grid,), (1.0,))[:, 0]
        np.testing.assert_array_equal(got, [0.0, 4.0])


def test_importing_sarsep_loads_no_scipy():
    """Nor the thread runs: ``import sarsep`` loads no scipy module and
    no ``concurrent.futures``, and starts no thread."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sarsep, sys, threading; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
        "'concurrent.futures' in sys.modules, threading.active_count())"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] False 1"


def test_image_points_do_not_depend_on_the_worker_count(near_trace, monkeypatch):
    """More workers than blocks and than CPUs, switching threads every
    microsecond, write the same values as one worker."""
    # Five full blocks and a partial one: chunks of zero to two blocks.
    points = ImageGrid(np.array([2.0, 4.0, 0.0]), 8.0, 8.0, 0.1).points()
    points = points[: 5 * _BLOCK + 17]
    u_vec = np.array([1.0, 2.0, 0.0])
    monkeypatch.setattr(kernels, "_WORKERS", 1)
    alone = image_points(near_trace, points, u_vec)
    monkeypatch.setattr(kernels, "_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = image_points(near_trace, points, u_vec)
    finally:
        sys.setswitchinterval(interval)
    assert pooled[1] == alone[1]
    assert np.array_equal(pooled[0], alone[0])


@pytest.mark.parametrize("order", ["random", "range-sorted"])
def test_image_points_do_not_depend_on_point_order(near_trace, order):
    """Permuted points get the permuted values bit for bit: the property
    any tiling or pruning of the pixels relies on."""
    # 2057 points, no multiple of _BLOCK; the 60 m down-range extent puts
    # pixels both inside and outside the gate.
    points = ImageGrid(np.array([2.0, 4.0, 0.0]), 60.0, 8.0, 0.5).points()
    assert points.shape[0] % _BLOCK
    if order == "random":
        perm = np.random.default_rng(5).permutation(points.shape[0])
    else:
        perm = np.argsort(points @ near_trace.frame.range_dir, kind="stable")
    u_vec = np.array([1.0, 2.0, 0.0])
    values, missed = image_points(near_trace, points, u_vec)
    assert 0 < missed < points.shape[0] * (near_trace.n + 1)
    permuted, permuted_missed = image_points(near_trace, points[perm], u_vec)
    assert permuted_missed == missed
    assert permuted.tobytes() == values[perm].tobytes()


class TestProfiles:
    def test_profile_peaks_at_the_target(self, near_trace):
        offsets, values = profile(
            near_trace, np.array([2.0, 4.0, 0.0]),
            np.array([1.0, 0.0, 0.0]), 1.5, 0.05,
        )
        assert offsets[np.argmax(values)] == pytest.approx(0.0, abs=0.05)

    def test_half_power_width_on_a_known_gaussian(self):
        offsets = np.linspace(-4.0, 4.0, 801)
        sigma = 0.8
        envelope = np.exp(-0.5 * (offsets / sigma) ** 2)
        width = half_power_width(offsets, envelope)
        expected = 2.0 * sigma * np.sqrt(np.log(2.0))
        assert width == pytest.approx(expected, rel=1e-3)

    def test_truncated_lobe_raises(self):
        offsets = np.linspace(-0.1, 0.1, 21)
        envelope = np.exp(-0.5 * offsets**2)
        with pytest.raises(ValueError, match="truncated"):
            half_power_width(offsets, envelope)

    def test_range_width_matches_the_pulse_bandwidth(self):
        # Needs a short aperture: at wide angular apertures the carrier
        # interference narrows the response well below the bandwidth
        # limit 1.665 c / (2 B).
        trace = simulate(near_scene([(2.0, 4.0, 0.0)], n=16))
        offsets, values = profile(
            trace, np.array([2.0, 4.0, 0.0]),
            np.array([1.0, 0.0, 0.0]), 1.5, 0.01,
        )
        width = half_power_width(offsets, values)
        nominal = 1.665 * 299_792_458.0 / (2.0 * Radar().bandwidth)
        assert width == pytest.approx(nominal, rel=0.15)
