"""Pulse model, fast-time grids, shifts, and gate conversions."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from conftest import flat_scene
from hypothesis import given
from hypothesis import strategies as st
from scipy.signal import hilbert

from sarsep import kernels, motion, signal
from sarsep.geom import compose_velocity, make_frame, travel_time
from sarsep.scene import Radar, Target, simulate
from sarsep.signal import (
    GATE_PAD_FACTOR,
    AnalyticRows,
    FastTimeAxis,
    TraceMatrix,
    fast_time_shift,
    fractional_shift,
    make_gate,
    next_fast_odd,
    phase_ramp,
    pulse,
    _widen_gate,
    range_compress,
    range_expand,
)


class TestPulse:
    def test_matches_the_closed_form(self):
        t = np.linspace(-3e-9, 3e-9, 11)
        nu0, bw = 9.6e9, 622.0e6
        expected = np.cos(2 * np.pi * nu0 * t) * np.exp(-0.5 * (bw * t) ** 2)
        np.testing.assert_allclose(pulse(t, nu0, bw), expected, rtol=1e-15)

    def test_peaks_at_zero_and_is_even_enveloped(self):
        assert pulse(0.0, 9.6e9, 622e6) == 1.0
        t = np.array([1.7e-9])
        assert abs(pulse(t, 9.6e9, 622e6)[0]) <= np.exp(-0.5 * (622e6 * t[0]) ** 2)


class TestNextFastOdd:
    def test_brute_force_agreement(self):
        def smooth_odd(k):
            if k % 2 == 0:
                return False
            for p in (3, 5, 7):
                while k % p == 0:
                    k //= p
            return k == 1

        for n in range(1, 200):
            got = next_fast_odd(n)
            assert got >= n and smooth_odd(got)
            assert not any(smooth_odd(k) for k in range(n, got))

    def test_small_inputs(self):
        assert next_fast_odd(0) == 1
        assert next_fast_odd(1) == 1
        assert next_fast_odd(2) == 3


class TestFastTimeAxis:
    def test_times_are_centered(self):
        axis = FastTimeAxis(m=4, dt=0.5, t_center=10.0)
        np.testing.assert_allclose(axis.times, [9.0, 9.5, 10.0, 10.5, 11.0])
        assert axis.half_width == 1.0

    def test_rejects_odd_m(self):
        with pytest.raises(ValueError, match="even"):
            FastTimeAxis(m=5, dt=0.1, t_center=0.0)

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_rejects_a_nonpositive_step(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            FastTimeAxis(m=4, dt=dt, t_center=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["dt", "t_center"])
    def test_rejects_a_non_finite_step_or_center(self, name, value):
        fields = {"m": 4, "dt": 0.1, "t_center": 0.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            FastTimeAxis(**fields)


class TestMakeGate:
    def test_covers_padded_interval_with_smooth_count(self):
        axis = make_gate(-1.0e-8, 3.0e-8, 2.0e-11, 5.0e-9)
        assert axis.times[0] <= -1.0e-8 - 5.0e-9
        assert axis.times[-1] >= 3.0e-8 + 5.0e-9
        count = axis.m + 1
        assert count == next_fast_odd(count)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            make_gate(1.0, 0.0, 0.1, 0.0)


def small_trace(flat_scene_builder, targets=((0.0, 0.0, 0.0),), n=16):
    return simulate(flat_scene_builder(targets, n=n))


class TestTraceMatrix:
    def test_shape_validation(self, flat_scene_builder):
        trace = small_trace(flat_scene_builder)
        with pytest.raises(ValueError, match="shape"):
            trace.replace(data=trace.data[:, :-1])

    def test_tag_validation(self, flat_scene_builder):
        trace = small_trace(flat_scene_builder)
        with pytest.raises(ValueError, match="tag"):
            trace.replace(tag="mystery")

    def test_rejects_non_finite_data(self, flat_scene_builder):
        trace = small_trace(flat_scene_builder)
        bad = trace.data.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            trace.replace(data=bad)

    def test_valid_rows_default_and_validation(self, flat_scene_builder):
        trace = small_trace(flat_scene_builder)
        assert trace.valid_rows == (0, trace.n + 1)
        with pytest.raises(ValueError, match="valid_rows"):
            trace.replace(valid_rows=(5, 3))
        trimmed = trace.replace(valid_rows=(1, trace.n))
        np.testing.assert_array_equal(trimmed.valid_data, trace.data[1 : trace.n])

    def test_carries_the_radar_band(self, flat_scene_builder):
        trace = small_trace(flat_scene_builder)
        radar = Radar()
        assert (trace.nu0, trace.bandwidth) == (radar.nu0, radar.bandwidth)
        assert trace.replace(data=2.0 * trace.data).bandwidth == radar.bandwidth
        assert type(trace.replace(nu0=10**10).nu0) is float

    @pytest.mark.parametrize("key", ["nu0", "bandwidth"])
    @pytest.mark.parametrize("value", [0.0, -1.0e9, np.nan, np.inf])
    def test_rejects_a_band_that_is_not_positive_and_finite(
        self, flat_scene_builder, key, value
    ):
        trace = small_trace(flat_scene_builder)
        with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
            trace.replace(**{key: value})

    def test_frame_is_the_view_frame_at_its_reference(self, flat_scene_builder):
        trace = small_trace(flat_scene_builder).replace(rho_o=(1.0, -2.0, 0.0))
        expected = make_frame(trace.traj, trace.rho_o)
        for field in dataclasses.fields(expected):
            np.testing.assert_array_equal(
                getattr(trace.frame, field.name), getattr(expected, field.name)
            )


class TestFractionalShift:
    def test_integer_shift_matches_roll(self):
        rng = np.random.default_rng(7)
        dt = 1.0
        # Band-limit the row so circular shifting is exact sample motion.
        spectrum = np.zeros(33, dtype=complex)
        spectrum[1:8] = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        row = np.fft.irfft(spectrum, n=64)
        shifted = fractional_shift(row[None, :], [3.0 * dt], dt)[0]
        np.testing.assert_allclose(shifted, np.roll(row, -3), atol=1e-12)

    def test_round_trip_is_identity(self):
        # Odd length: no Nyquist bin, so fractional phase ramps invert exactly.
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((4, 45))
        delays = rng.uniform(-2.0, 2.0, 4)
        back = fractional_shift(fractional_shift(rows, delays, 0.5), -delays, 0.5)
        np.testing.assert_allclose(back, rows, atol=1e-12)

    def test_round_trip_is_exact_beyond_half_the_gate(self):
        # Circular shifts wrap, but a shift and its negation still invert
        # exactly when the delay exceeds half the 22 s gate.
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((4, 45))
        delays = np.array([14.0, -12.5, 11.8, -13.3])
        back = fractional_shift(fractional_shift(rows, delays, 0.5), -delays, 0.5)
        np.testing.assert_allclose(back, rows, atol=1e-12)


class TestPhaseRamp:
    def test_matches_the_complex_exponential(self):
        rng = np.random.default_rng(5)
        count, dt = 11907, Radar().dt
        delays = rng.uniform(-0.25, 0.25, 8) * count * dt
        full = np.fft.rfftfreq(count, dt)
        k0, bins = 2500, 1201
        band = (k0 + np.arange(bins)) / (count * dt)
        for ramp, freqs in (
            (phase_ramp(delays, count, dt), full),
            (phase_ramp(delays, count, dt, k0=k0, bins=bins), band),
        ):
            exact = np.exp(2j * np.pi * np.outer(delays, freqs))
            np.testing.assert_allclose(ramp, exact, rtol=0.0, atol=1e-11)


class TestFastTimeShift:
    def test_inverse_round_trip(self, flat_scene_builder):
        trace = small_trace(flat_scene_builder)
        shifts = np.linspace(-1.0, 1.0, trace.n + 1) * trace.axis.dt * 3.0
        back = fast_time_shift(fast_time_shift(trace, shifts), -shifts)
        np.testing.assert_allclose(back.data, trace.data, atol=1e-10)

    def test_zeroed_rows_stay_zero(self, flat_scene_builder):
        trace = small_trace(flat_scene_builder)
        trimmed = trace.replace(valid_rows=(2, trace.n - 1))
        data = trimmed.data.copy()
        data[:2] = 0.0
        data[trace.n - 1 :] = 0.0
        trimmed = trimmed.replace(data=data)
        shifted = fast_time_shift(trimmed, np.full(trace.n + 1, trace.axis.dt))
        assert np.all(shifted.data[:2] == 0.0)
        assert np.all(shifted.data[trace.n - 1 :] == 0.0)


class TestAnalyticRows:
    @staticmethod
    def band_limited_trace(flat_scene_builder):
        """Random rows confined to nu0 +- B, with the outer rows invalid."""
        trace = small_trace(flat_scene_builder)
        count, dt = trace.m + 1, trace.axis.dt
        freqs = np.fft.rfftfreq(count, dt)
        radar = Radar()
        inside = np.abs(freqs - radar.nu0) < radar.bandwidth
        rng = np.random.default_rng(3)
        spectra = np.zeros((trace.n + 1, freqs.size), dtype=complex)
        spectra[:, inside] = rng.standard_normal((trace.n + 1, inside.sum()))
        spectra[:, inside] += 1j * rng.standard_normal((trace.n + 1, inside.sum()))
        data = np.fft.irfft(spectra, n=count)
        return trace.replace(data=data, valid_rows=(2, trace.n - 1))

    @staticmethod
    def delays(trace):
        start, stop = trace.valid_rows
        return np.linspace(-3.3, 2.7, stop - start) * trace.axis.dt

    def test_full_band_rows_are_the_hilbert_analytic_signal(self, flat_scene_builder):
        # A band of nu0 +- 2 nu0 does not fit the gate's spectrum.
        trace = self.band_limited_trace(flat_scene_builder)
        trace = trace.replace(bandwidth=trace.nu0)
        rows = AnalyticRows(trace)
        assert rows.k_lo == 0 and rows.bins == (trace.m + 1) // 2 + 1
        expected = hilbert(trace.valid_data, axis=1)
        tol = 1e-12 * np.abs(expected).max()
        np.testing.assert_allclose(rows.upsampled(1), expected, rtol=0.0, atol=tol)
        delays = self.delays(trace)
        shifted = fractional_shift(trace.valid_data, delays, trace.axis.dt)
        np.testing.assert_allclose(
            rows.shifted(delays), hilbert(shifted, axis=1), rtol=0.0, atol=tol
        )

    def test_band_rows_are_the_analytic_rows_at_coarse_times(
        self, flat_scene_builder
    ):
        trace = self.band_limited_trace(flat_scene_builder)
        rows = AnalyticRows(trace)
        count, dt = trace.m + 1, trace.axis.dt
        assert rows.k_lo >= 1 and rows.bins < count
        # The kept band is centered on the carrier and spans 4B or more.
        df = 1.0 / (count * dt)
        radar = Radar()
        assert abs((rows.k_lo + rows.bins // 2) * df - radar.nu0) <= 0.5 * df
        assert rows.bins * df >= 4.0 * radar.bandwidth
        delays = self.delays(trace)
        samples = np.arange(rows.bins)
        remodulate = np.exp(2j * np.pi * rows.k_lo * samples / rows.bins)
        got = rows.shifted(delays) * remodulate * (rows.bins / count)
        # The analytic row a(t) = (1/count) sum_k w_k X_k exp(2 pi i k t / T),
        # w_0 = 1 and w_k = 2, over the whole one-sided spectrum X, at
        # t = n T / bins + delay with T = count dt the gate period.
        spectra = np.fft.rfft(trace.valid_data, axis=1)
        k = np.arange(spectra.shape[1])
        weights = np.where(k == 0, 1.0, 2.0)
        t = samples[None, :] * count * dt / rows.bins + delays[:, None]
        phases = np.exp(2j * np.pi * t[:, :, None] * k / (count * dt))
        expected = np.einsum("jk,jnk->jn", spectra * weights, phases) / count
        np.testing.assert_allclose(
            got, expected, rtol=0.0, atol=1e-10 * np.abs(expected).max()
        )

    def test_upsampled_is_the_scaled_inverse_transform(self, flat_scene_builder):
        trace = self.band_limited_trace(flat_scene_builder)
        rows = AnalyticRows(trace)
        padded = np.zeros((rows.spectra.shape[0], 3 * rows.count), dtype=complex)
        padded[:, : rows.spectra.shape[1]] = rows.spectra
        assert np.array_equal(rows.upsampled(3), np.fft.ifft(padded, axis=1) * 3)

    @pytest.mark.parametrize("band", [True, False])
    def test_stacked_delays_shift_like_one_call_each(self, flat_scene_builder, band):
        trace = self.band_limited_trace(flat_scene_builder)
        rows = AnalyticRows(trace if band else trace.replace(bandwidth=trace.nu0))
        assert (rows.k_lo > 0) == band
        delays = self.delays(trace)
        stacked = np.stack([delays, -0.5 * delays, delays[::-1]])
        got = rows.shifted(stacked)
        assert got.shape == (3,) + rows.shifted(delays).shape
        for k, row_delays in enumerate(stacked):
            assert np.array_equal(got[k], rows.shifted(row_delays))


class TestRowsSlot:
    """``AnalyticRows.of``: one trace's rows, built once and dropped with
    the trace."""

    def test_a_trace_asked_twice_gets_the_same_rows(self, flat_scene_builder):
        trace = small_trace(flat_scene_builder)
        rows = AnalyticRows.of(trace)
        up = rows.upsampled(4)
        assert AnalyticRows.of(trace) is rows
        assert rows.upsampled(4) is up
        assert np.array_equal(up, AnalyticRows(trace).upsampled(4))

    def test_a_replaced_trace_gets_new_rows(self, flat_scene_builder):
        trace = small_trace(flat_scene_builder)
        old = AnalyticRows.of(trace)
        old.upsampled(4)
        doubled = trace.replace(data=2.0 * trace.data)
        rows = AnalyticRows.of(doubled)
        assert rows is not old
        fresh = AnalyticRows(doubled)
        assert np.array_equal(rows.spectra, fresh.spectra)
        assert np.array_equal(rows.upsampled(4), fresh.upsampled(4))
        assert np.array_equal(old.upsampled(4), AnalyticRows(trace).upsampled(4))

    def test_the_slot_drops_the_rows_of_a_collected_trace(self, flat_scene_builder):
        trace = small_trace(flat_scene_builder)
        rows = weakref.ref(AnalyticRows.of(trace))
        rows().upsampled(4)
        assert signal._SLOT is not None
        del trace
        gc.collect()
        assert signal._SLOT is None and rows() is None

    def test_release_empties_the_slot(self, flat_scene_builder):
        trace = small_trace(flat_scene_builder)
        rows = AnalyticRows.of(trace)
        AnalyticRows.release()
        assert signal._SLOT is None
        assert AnalyticRows.of(trace) is not rows

    def test_trace_data_is_read_only(self, flat_scene_builder):
        data = small_trace(flat_scene_builder).data.copy()
        trace = small_trace(flat_scene_builder).replace(data=data)
        with pytest.raises(ValueError, match="read-only"):
            trace.data[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            trace.valid_data[...] = 0.0
        assert np.shares_memory(trace.data, data)
        assert data.flags.writeable
        assert AnalyticRows.of(trace).upsampled(4).flags.writeable is False

    @pytest.mark.parametrize("workers", [1, 2])
    def test_separate_movers_from_a_cold_and_a_warm_slot(
        self, flat_scene_builder, monkeypatch, workers
    ):
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        frame = make_frame(flat_scene_builder([]).traj, np.zeros(3))
        mover = Target(
            rho=np.zeros(3),
            velocity=tuple(compose_velocity(frame, 3.0, 0.0)),
            amplitude=2.0,
        )
        trace = small_trace(
            flat_scene_builder, [(1.0, 0.0, 0.0), (-2.0, 3.0, 0.0), mover], n=64
        )
        runs = []
        for warm in (False, True):
            AnalyticRows.release()
            if warm:
                # The slot holds the mixture's rows and an upsampled
                # buffer of the movers' shape before the run.
                AnalyticRows.of(trace).upsampled(4)
            # The 12 m box reaches past the gate on purpose: it is the
            # one the pipeline's pool test images.
            with pytest.warns(RuntimeWarning, match="outside the fast-time gate"):
                runs.append(motion.separate_movers(trace, max_movers=2, extent=12.0))
        cold, warm = runs
        assert cold.estimates
        for a, b in zip(
            (cold.low, *cold.movers, cold.residual),
            (warm.low, *warm.movers, warm.residual),
            strict=True,
        ):
            assert a.data.tobytes() == b.data.tobytes()
        assert [e.to_dict() for e in cold.estimates] == [
            e.to_dict() for e in warm.estimates
        ]


class TestGateConversions:
    def test_compress_requires_raw_and_expand_requires_compressed(
        self, flat_scene_builder
    ):
        trace = small_trace(flat_scene_builder)
        assert trace.tag == "range-compressed"
        with pytest.raises(ValueError, match="already"):
            range_compress(trace)
        raw = range_expand(trace)
        assert raw.tag == "raw"
        with pytest.raises(ValueError, match="not range-compressed"):
            range_expand(raw)

    def test_expand_then_compress_round_trip(self, flat_scene_builder):
        trace = small_trace(
            flat_scene_builder, targets=((0.0, 0.0, 0.0), (3.0, -2.0, 0.0))
        )
        raw = range_expand(trace)
        assert raw.m + 1 == next_fast_odd(raw.m + 1)
        back = range_compress(raw, new_center=trace.axis.t_center)
        # The round trip widens the gate; compare on the original columns.
        offset = int(round((trace.t_times[0] - back.t_times[0]) / back.axis.dt))
        np.testing.assert_allclose(
            back.data[:, offset : offset + trace.m + 1],
            trace.data,
            atol=1e-10 * np.abs(trace.data).max(),
        )

    def test_expanded_rows_sit_at_absolute_delay(self, flat_scene_builder):
        scene = flat_scene_builder([(0.0, 0.0, 0.0)], n=8)
        trace = simulate(scene)
        raw = range_expand(trace)
        for j in (0, 4, 8):
            peak_t = raw.t_times[np.argmax(np.abs(raw.data[j]))]
            tau = float(travel_time(scene.traj, raw.s_times[j], np.zeros(3)))
            assert abs(peak_t - tau) <= raw.axis.dt


    @pytest.mark.parametrize("margin", [0, -3.5])
    def test_no_margin_keeps_the_trace(self, flat_scene_builder, margin):
        trace = small_trace(flat_scene_builder)
        assert _widen_gate(trace, margin) is trace

    def test_a_widened_gate_keeps_each_sample_at_its_time(self, flat_scene_builder):
        trace = small_trace(flat_scene_builder)
        wide = _widen_gate(trace, 40.5)
        assert wide.m + 1 == next_fast_odd(trace.m + 1 + 2 * 41)
        offset = (wide.m - trace.m) // 2
        cols = slice(offset, offset + trace.m + 1)
        np.testing.assert_array_equal(wide.t_times[cols], trace.t_times)
        np.testing.assert_array_equal(wide.data[:, cols], trace.data)
        assert not wide.data[:, :offset].any() and not wide.data[:, cols.stop :].any()

    @pytest.mark.parametrize(
        "targets", [((0.0, 0.0, 0.0),), ((0.0, 0.0, 0.0), (3.0, -2.0, 0.0))]
    )
    def test_expand_equals_the_inline_widening(self, flat_scene_builder, targets):
        trace = small_trace(flat_scene_builder, targets=targets)
        raw, expected = range_expand(trace), inline_range_expand(trace)
        assert raw.axis == expected.axis
        np.testing.assert_array_equal(raw.data, expected.data)


def inline_range_expand(trace):
    """``range_expand`` with its gate widened inline: the reference for
    its widening through ``_widen_gate``."""
    tau_ref = travel_time(trace.traj, trace.s_times, trace.rho_o)
    new_center = trace.axis.t_center + float(np.mean(tau_ref))
    delays = new_center - (trace.axis.t_center + tau_ref)
    dt = trace.axis.dt
    spread = int(np.ceil(float(np.max(np.abs(delays))) / dt)) + 2
    old_count = trace.axis.m + 1
    new_count = next_fast_odd(old_count + 2 * spread)
    offset = (new_count - 1) // 2 - trace.axis.m // 2
    wide = np.zeros((trace.aperture.n + 1, new_count), dtype=float)
    wide[:, offset : offset + old_count] = trace.data
    data = fractional_shift(wide, delays, dt)
    axis = FastTimeAxis(m=new_count - 1, dt=dt, t_center=new_center)
    return trace.replace(data=data, axis=axis, tag="raw")


@given(center_step=st.integers(-3, 3))
def test_compress_round_trip_property(center_step):
    """Expand then re-compress restores the rows at any grid-aligned center."""
    scene = flat_scene([(0.0, 0.0, 0.0)], n=8)
    trace = simulate(scene)
    raw = range_expand(trace)
    shifted_center = trace.axis.t_center + center_step * trace.axis.dt
    back = range_compress(raw, new_center=shifted_center)
    # Re-centering moves the sample grid, not the content, so the original
    # columns reappear at an integer offset inside the widened gate.
    offset = int(round((trace.t_times[0] - back.t_times[0]) / back.axis.dt))
    np.testing.assert_allclose(
        back.data[:, offset : offset + trace.m + 1],
        trace.data,
        atol=1e-9 * np.abs(trace.data).max(),
    )
