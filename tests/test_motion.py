"""Velocity scans, mover location, and the peeling pipeline."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import compressed_trace, flat_scene, near_scene, near_traj

from sarsep import annihil, imaging, kernels, motion
from sarsep.annihil import tt_forward, tt_inverse
from sarsep.geom import (
    LinearTrajectory,
    compose_velocity,
    decompose_velocity,
    delta_tau_moving,
    make_frame,
)
from sarsep.imaging import _local_maxima, _refine_peaks
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
from sarsep.rpca import WindowLayout, _separate_spans, choose_window
from sarsep.scene import Radar, Target, simulate
from sarsep.signal import AnalyticRows, FastTimeAxis, fractional_shift, next_fast_odd

pytestmark = pytest.mark.filterwarnings(
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


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _perfbench_workloads(monkeypatch):
    """perfbench's workloads module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


class TestTrialVelocity:
    def test_range_speed_is_exact_and_cross_speed_zero(self, near_frame):
        for u in (-3.0, 0.5, 12.0):
            u_vec = trial_velocity(near_frame, u)
            assert u_vec[2] == 0.0
            u_chk, u_perp_chk = decompose_velocity(near_frame, u_vec)
            assert u_chk == pytest.approx(u, abs=1e-12)
            assert u_perp_chk == pytest.approx(0.0, abs=1e-12)

    def test_an_array_call_equals_the_scalar_calls(self, near_frame):
        speeds = np.array([[-3.0, 0.5, 12.0], [0.0, -0.25, 70.0]])
        velocities = trial_velocity(near_frame, speeds)
        assert velocities.shape == (2, 3, 3)
        for index in np.ndindex(speeds.shape):
            scalar = trial_velocity(near_frame, float(speeds[index]))
            np.testing.assert_array_equal(velocities[index], scalar)
        assert trial_velocity(near_frame, np.array(0.5)).shape == (3,)

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

    def test_a_band_above_nyquist_scans_the_whole_spectrum(self, near_frame):
        # At 2.1 samples per carrier cycle nu0 + 2B lies above the
        # Nyquist frequency, so the rows keep every one-sided bin.
        mover = Target(
            rho=np.zeros(3), velocity=tuple(compose_velocity(near_frame, 2.0, 5.0))
        )
        radar = Radar(dt=1.0 / (2.1 * Radar().nu0))
        trace = simulate(dataclasses.replace(near_scene([mover]), radar=radar))
        rows = AnalyticRows(trace)
        assert rows.k_lo == 0 and rows.bins == rows.count // 2 + 1
        peaks = find_speed_peaks(
            *g_curve(trace, u_grid=np.arange(-1.0, 6.25, 0.25)), height_factor=1.05
        )
        assert peaks[0][0] == pytest.approx(2.0, abs=0.25)

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

    @pytest.mark.parametrize("factor", [np.nan, np.inf, -1.0])
    def test_rejects_a_height_factor_that_is_not_finite_and_non_negative(
        self, factor
    ):
        grid = np.arange(-5.0, 5.25, 0.5)
        with pytest.raises(ValueError, match="height_factor must be finite"):
            find_speed_peaks(grid, np.ones(grid.size), factor)


def test_scans_do_not_depend_on_the_worker_count(
    mover_trace, near_frame, monkeypatch
):
    # 41 trials: no batch size here divides it, and three workers take
    # uneven chunks, each ending on a partial batch.
    grid = np.linspace(-10.0, 10.0, 41)
    curves = {}
    for batch in (1, 3, 4, 8):
        monkeypatch.setattr(motion, "_SCAN_BATCH", batch)
        for workers in (1, 3):
            monkeypatch.setattr(kernels, "_WORKERS", workers)
            curves[batch, workers] = (
                g_curve(mover_trace, grid)[1],
                g_perp_curve(mover_trace, np.zeros(3), 2.0, grid)[1],
            )
    first = curves[1, 1]
    for curve in curves.values():
        assert all(np.array_equal(a, b) for a, b in zip(first, curve))
    # A curve taken on a sub-grid reads the full curve's values there,
    # which is what lets a coarse-to-fine search stand for the full scan.
    some = np.array([0, 3, 4, 17, 18, 40])
    assert np.array_equal(g_curve(mover_trace, grid[some])[1], first[0][some])
    assert np.array_equal(
        g_perp_curve(mover_trace, np.zeros(3), 2.0, grid[some])[1], first[1][some]
    )


def test_separate_movers_does_not_depend_on_the_pool(monkeypatch):
    # The far-range scene of the CLI's rpca test: two stationary points
    # for the removal and one range mover for a scan, a location image
    # and a peel.  Each setting puts a different number of workers,
    # rows, pixels and trials in every blocked loop.
    u_vec = compose_velocity(make_frame(flat_scene([]).traj, np.zeros(3)), 3.0, 0.0)
    mover = Target(rho=np.zeros(3), velocity=tuple(u_vec), amplitude=2.0)
    trace = simulate(flat_scene([(1.0, 0.0, 0.0), (-2.0, 3.0, 0.0), mover], n=64))
    runs = []
    for workers, rows, pixels, batch in ((1, 32, 256, 4), (3, 7, 100, 3)):
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        monkeypatch.setattr(kernels, "_ROW_CHUNK", rows)
        monkeypatch.setattr(imaging, "_BLOCK", pixels)
        monkeypatch.setattr(motion, "_SCAN_BATCH", batch)
        runs.append(separate_movers(trace, max_movers=2, extent=12.0))
    first, second = runs
    assert first.diagnostics["stationary_candidates"] > 0
    assert first.estimates
    for a, b in zip(
        (first.low, *first.movers, first.residual),
        (second.low, *second.movers, second.residual),
        strict=True,
    ):
        assert a.data.tobytes() == b.data.tobytes()
    assert [e.to_dict() for e in first.estimates] == [
        e.to_dict() for e in second.estimates
    ]
    assert first.diagnostics["scans"] == second.diagnostics["scans"]


def _search(values, sign=1.0, height_factor=None, factor=motion._COARSE_FACTOR):
    """``_scan_extremum`` on a synthetic curve over the lattice 0, 1, ...,
    with the size of each call it makes."""
    calls = []

    def curve(speeds):
        calls.append(speeds.size)
        return values[speeds.astype(int)]

    grid = np.arange(values.size, dtype=float)
    found = motion._scan_extremum(
        curve, grid, "test", factor, sign=sign, height_factor=height_factor
    )
    return found, calls


class TestScanExtremum:
    def test_factor_one_is_the_full_scan(self):
        values = np.random.default_rng(5).random(101)
        grid = np.arange(values.size, dtype=float)
        (u, value, (speeds, seen), record), calls = _search(values, factor=1)
        assert calls == [values.size] and record["trials"] == values.size
        np.testing.assert_array_equal(speeds, grid)
        np.testing.assert_array_equal(seen, values)
        i = int(np.argmax(values))
        assert value == values[i]
        assert u == _refine_peaks(values, (i,), (grid,), (1.0,))[0, 0]
        (u, _, _, _), _ = _search(values, sign=-1.0, factor=1)
        i = int(np.argmin(values))
        assert u == _refine_peaks(-values, (i,), (grid,), (1.0,))[0, 0]
        (u, value, _, _), _ = _search(values, height_factor=1.5, factor=1)
        assert [(u, value)] == find_speed_peaks(grid, values, 1.5)[:1]

    def test_candidates_are_ranked_after_the_fine_pass(self):
        # A narrow peak at 50 between coarse points 48 and 52, a broad
        # one on coarse point 80: the coarse curve ranks the broad one
        # first, the full curve the narrow one.
        lattice = np.arange(121)
        values = 1.0 + 0.01 * np.cos(lattice)
        values += 10.0 * np.exp(-(((lattice - 50) / 1.5) ** 2))
        values += 9.9 * np.exp(-(((lattice - 80) / 6.0) ** 2))
        coarse = lattice[:: motion._COARSE_FACTOR]
        assert coarse[np.argmax(values[coarse])] == 80
        (u, value, _, record), calls = _search(values)
        assert value == values.max() == values[50]
        assert round(u) == 50 and record["trials"] < values.size / 2
        assert len(calls) == 2

    def test_an_end_of_the_lattice_can_be_the_extremum(self):
        values = np.linspace(1.0, 2.0, 61) ** 2
        (u, value, _, record), _ = _search(values)
        assert (u, value, record["on_border"]) == (60.0, values[-1], True)
        (u, value, _, record), _ = _search(values, sign=-1.0)
        assert (u, value, record["on_border"]) == (0.0, values[0], True)
        # A detection takes interior peaks only, as find_speed_peaks does.
        (u, value, _, record), _ = _search(values, height_factor=1.0)
        assert u is value is None and not record["on_border"]

    def test_a_detection_spends_no_fine_window_on_an_end(self):
        # A narrow peak at 50 whose coarse points 48 and 52 read below
        # the broad clutter peaks on coarse points 20 and 80, and a high
        # last point: were the end a coarse candidate, the three fine
        # windows would go to 120, 20 and 80 and miss the peak.
        lattice = np.arange(121)
        values = 1.0 + 0.01 * np.cos(lattice)
        values += 9.0 * np.exp(-(((lattice - 50) / 1.5) ** 2))
        values += 2.0 * np.exp(-(((lattice - 20) / 6.0) ** 2))
        values += 1.9 * np.exp(-(((lattice - 80) / 6.0) ** 2))
        values[-1] = 50.0
        coarse = values[:: motion._COARSE_FACTOR]
        assert np.sum(coarse > max(values[48], values[52])) == 3
        (u, value, _, record), _ = _search(values, height_factor=2.0)
        grid = np.arange(values.size, dtype=float)
        assert [(u, value)] == find_speed_peaks(grid, values, 2.0)[:1]
        assert round(u) == 50 and not record["on_border"]

    def test_a_flat_top_is_tie_broken_as_local_maxima_breaks_ties(self):
        # The top spans 30-32; 32 is a coarse point.
        values = np.full(81, 1.0)
        values[29:34] = [2.0, 5.0, 5.0, 5.0, 2.0]
        i = _local_maxima(values, 0.0)[0][0]
        assert i == 32
        (u, value, _, _), _ = _search(values)
        grid = np.arange(values.size, dtype=float)
        assert u == _refine_peaks(values, (i,), (grid,), (1.0,))[0, 0]
        assert value == 5.0

    @pytest.mark.parametrize(
        "values, index",
        [
            ([3.0], 0),
            ([1.0, 2.0], 1),
            ([1.0, 3.0, 2.0], 1),
            ([4.0, 1.0, 2.0, 3.0], 0),
        ],
    )
    def test_a_lattice_shorter_than_one_coarse_step(self, values, index):
        values = np.array(values)
        (u, value, (speeds, _), record), calls = _search(values)
        assert calls == [values.size] and speeds.size == values.size
        assert value == values[index] and round(u) == index
        assert record["on_border"] == (index in (0, values.size - 1))


class TestCoarseFactor:
    def test_the_coarse_step_fits_inside_the_narrowest_peak(
        self, mover_trace, near_frame
    ):
        # The near-range mover's g_perp dip is 3 lattice steps wide at half
        # depth, its g(u) peak over 20; reduced scene1's dips are 85-110.
        rho = np.zeros(3)
        grid = motion._default_speed_grid(mover_trace, motion._U_PERP_STEP)
        cross = compose_velocity(near_frame, 2.0, grid)
        assert motion._coarse_factor(mover_trace, rho, cross, "g_perp") == 1
        grid = motion._default_speed_grid(mover_trace, motion._U_STEP)
        along = trial_velocity(near_frame, grid)
        factor = motion._coarse_factor(mover_trace, rho, along, "g")
        assert factor == motion._COARSE_FACTOR
        # A lattice of one point is scanned whole.
        assert motion._coarse_factor(mover_trace, rho, along[:1], "g") == 1

    @staticmethod
    def brute_force(trace, rho, velocities, kind):
        """``_coarse_factor`` by a loop over every lattice step."""
        s = trace.s_times[slice(*trace.valid_rows)]
        widest = 0.0
        for a, b in zip(velocities[:-1], velocities[1:]):
            change = delta_tau_moving(
                trace.traj, s, rho, b, trace.rho_o
            ) - delta_tau_moving(trace.traj, s, rho, a, trace.rho_o)
            widest = max(widest, float(change.max() - change.min()))
        cells = widest * trace.bandwidth
        width = 2.0 * motion._HALF_SPREAD[kind]
        if cells * motion._COARSE_FACTOR <= width:
            return motion._COARSE_FACTOR
        return max(1, int(width / cells))

    def test_every_step_matches_a_loop(self, mover_trace, near_frame, monkeypatch):
        # The near-range mover at its true location and speeds, and
        # perfbench's scene1-separate input at each of its movers'.
        workloads = _perfbench_workloads(monkeypatch)
        inputs = workloads.split_setup(None, None)
        scenes = [
            (mover_trace, near_frame, [(np.zeros(3), 2.0)]),
            (
                inputs.mixture,
                inputs.scene.frame,
                [
                    (t.rho, decompose_velocity(inputs.scene.frame, t.velocity)[0])
                    for t in inputs.scene.moving_targets
                ],
            ),
        ]
        cases = []
        for trace, frame, movers in scenes:
            grid = motion._default_speed_grid(trace, motion._U_STEP)
            cases.append((trace, trace.rho_o, trial_velocity(frame, grid), "g"))
            grid = motion._default_speed_grid(trace, motion._U_PERP_STEP)
            for rho, u in movers:
                cases.append((trace, rho, compose_velocity(frame, u, grid), "g_perp"))
        factors = [motion._coarse_factor(*case) for case in cases]
        assert factors == [self.brute_force(*case) for case in cases]
        assert factors[:2] == [4, 1]


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

    def test_the_default_grid_finds_a_dip_narrower_than_four_steps(
        self, mover_trace
    ):
        u_perp, (grid, values) = estimate_cross_speed(mover_trace, np.zeros(3), 2.0)
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

    def test_flat_envelope_warns(self):
        trace = simulate(near_scene([(1.0, 0.0, 0.0)], n=8))
        flat = trace.replace(data=np.ones_like(trace.data))
        with pytest.warns(RuntimeWarning, match="unreliable"):
            estimate_location(flat, np.zeros(3), extent=2.0)


class TestVelocityEstimate:
    def test_frame_consistency_is_enforced(self, near_frame, single_mover_run):
        made = VelocityEstimate(
            u=2.0, u_perp=-5.3, rho=np.zeros(3), g_score=1.0, frame=near_frame
        )
        for est in (made, *single_mover_run[1].estimates):
            np.testing.assert_array_equal(
                est.u_vec, compose_velocity(est.frame, est.u, est.u_perp)
            )
            u, u_perp = decompose_velocity(est.frame, est.u_vec)
            assert u == pytest.approx(est.u, abs=1e-12)
            assert u_perp == pytest.approx(est.u_perp, abs=1e-12)
        names = {f.name for f in dataclasses.fields(VelocityEstimate)}
        assert names == {"u", "u_perp", "rho", "g_score", "frame", "u_vec"}
        with pytest.raises(TypeError, match="u_vec"):
            VelocityEstimate(
                u=2.0, u_perp=0.0, u_vec=np.zeros(3), rho=np.zeros(3),
                g_score=1.0, frame=near_frame,
            )

    def test_vector_shapes_are_checked(self, near_frame):
        with pytest.raises(ValueError, match="3-vector"):
            VelocityEstimate(
                u=0.0, u_perp=0.0, rho=np.zeros(2), g_score=0.0, frame=near_frame
            )

    def test_to_dict_holds_the_state(self, near_frame):
        est = VelocityEstimate(
            u=1.0, u_perp=2.0, rho=np.ones(3), g_score=4.0, frame=near_frame
        )
        assert est.to_dict() == {
            "u_meters_per_second": 1.0,
            "u_perp_meters_per_second": 2.0,
            "u_vec_meters_per_second": est.u_vec.tolist(),
            "rho_meters": [1.0, 1.0, 1.0],
            "g_score": 4.0,
        }


SCAN_RECORD_KEYS = {"kind", "trials", "coarse_factor", "fine_windows", "on_border"}


class TestEstimateMotion:
    """The one locate -> cross speed -> relocate step, against its
    parts called in that order."""

    def test_the_located_step_records_its_cross_speed_search(
        self, mover_trace, near_frame
    ):
        est, scans = motion.estimate_motion(mover_trace, 2.0, 1.0, extent=4.0)
        rho = estimate_location(mover_trace, trial_velocity(near_frame, 2.0), 4.0)
        u_perp, _ = estimate_cross_speed(mover_trace, rho, 2.0)
        rho = estimate_location(
            mover_trace, compose_velocity(near_frame, 2.0, u_perp), 4.0
        )
        assert (est.u, est.u_perp, est.g_score) == (2.0, u_perp, 1.0)
        np.testing.assert_array_equal(est.rho, rho)
        (record,) = scans
        assert record.keys() == SCAN_RECORD_KEYS
        assert record["kind"] == "g_perp"

    def test_a_given_location_is_kept(self, mover_trace):
        rho = np.array([0.3, -0.2, 0.0])
        grid = np.arange(0.0, 10.5, 0.5)
        est, scans = motion.estimate_motion(
            mover_trace, 2.0, 1.0, rho=rho, u_perp_grid=grid
        )
        u_perp, (evaluated, _) = estimate_cross_speed(mover_trace, rho, 2.0, grid)
        assert est.u_perp == u_perp
        np.testing.assert_array_equal(est.rho, rho)
        (record,) = scans
        assert record.keys() == SCAN_RECORD_KEYS
        assert record["kind"] == "g_perp"
        assert record["trials"] == evaluated.size


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
            "stationary_candidates",
            "windows",
            "g_curves",
            "scans",
            "feasibility",
            "max_shift_frac",
        }
        scans = sep.diagnostics["scans"]
        assert [r["kind"] for r in scans] == ["g", "g_perp", "g_refine", "g_perp"]
        assert all(r.keys() == SCAN_RECORD_KEYS for r in scans)
        u_grid, values = sep.diagnostics["g_curves"][0]
        assert u_grid.size == values.size == scans[0]["trials"]
        assert np.all(np.diff(u_grid) > 0.0)
        assert 0.0 < sep.diagnostics["max_shift_frac"] < 1.0
        # The near-range image locates no points: the stand-in split ran.
        assert sep.diagnostics["stationary_candidates"] == 0
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

    def test_each_mover_runs_the_one_motion_step_twice(
        self, monkeypatch, single_mover_run
    ):
        calls = []
        original = motion.estimate_motion

        def counted(trace, *args, **kwargs):
            result = original(trace, *args, **kwargs)
            calls.append((trace, kwargs.get("u_vec"), result))
            return result

        monkeypatch.setattr(motion, "estimate_motion", counted)
        sep = separate_movers(single_mover_run[0], max_movers=2, extent=12.0)
        assert len(sep.movers) == 2
        assert len(calls) == 2 * len(sep.movers)
        for mover, first, refined in zip(sep.movers, calls[::2], calls[1::2]):
            # The refinement runs on the peeled mover, from the first
            # round's velocity.
            assert refined[0] is mover
            assert first[1] is None
            assert refined[1] is first[2][0].u_vec
        refined_estimates = [est for _, _, (est, _) in calls[1::2]]
        assert all(a is b for a, b in zip(refined_estimates, sep.estimates))
        returned = [r for _, _, (_, records) in calls for r in records]
        g_perp = [r for r in sep.diagnostics["scans"] if r["kind"] == "g_perp"]
        assert len(returned) == len(g_perp)
        assert all(a is b for a, b in zip(returned, g_perp))

    def test_the_located_candidates_are_counted(self, monkeypatch):
        targets = [(1.0, 0.0, 0.0), (-2.0, 1.5, 0.0), (0.5, -2.5, 0.0)]
        trace = simulate(flat_scene(targets, n=64))
        sep = separate_movers(trace, max_movers=0, extent=12.0)
        assert sep.diagnostics["stationary_candidates"] >= len(targets)
        # Below the flat scene's point count the cap cuts the list.
        monkeypatch.setattr(annihil, "_MAX_CANDIDATES", 2)
        capped = separate_movers(trace, max_movers=0, extent=12.0)
        assert capped.diagnostics["stationary_candidates"] == 2

    def test_the_preliminary_image_is_formed_once(self, single_mover_run):
        # The near-range image locates no points, so the windowed split
        # stands in for the removal, over the caller's box only.
        assert single_mover_run[2] == [12.0]


def _separation_arrays(sep):
    """Every number of a separation except its scan records and curves."""
    yield sep.low.data
    yield sep.residual.data
    yield from (m.data for m in sep.movers)
    for est in sep.estimates:
        yield np.array([est.u, est.u_perp, est.g_score, *est.rho])
    yield np.array([sep.diagnostics["max_shift_frac"]])


class TestCoarseToFineOracle:
    """The pipeline at the shipped coarse factor against factor 1, the
    full scan of every curve."""

    def assert_same_as_full_scans(self, monkeypatch, run):
        shipped = run()
        monkeypatch.setattr(motion, "_COARSE_FACTOR", 1)
        full = run()
        assert len(shipped.estimates) == len(full.estimates) > 0
        for a, b in zip(_separation_arrays(shipped), _separation_arrays(full)):
            np.testing.assert_array_equal(a, b)
        trials = [
            sum(r["trials"] for r in sep.diagnostics["scans"])
            for sep in (shipped, full)
        ]
        assert trials[0] < trials[1]

    def test_single_mover_fixture(self, monkeypatch, single_mover_run):
        trace = single_mover_run[0]
        self.assert_same_as_full_scans(
            monkeypatch, lambda: separate_movers(trace, max_movers=1, extent=12.0)
        )

    def test_reduced_scene1_at_seed_0(self, monkeypatch):
        # perfbench's scene1-separate input and call at seed 0.
        workloads = _perfbench_workloads(monkeypatch)
        inputs = workloads.split_setup(None, None)
        self.assert_same_as_full_scans(
            monkeypatch, lambda: workloads.split_run(inputs)
        )


class TestPeelWindow:
    def test_a_long_gate_is_peeled_in_one_window_around_t0(self):
        # Points 12 m apart in range widen the gate to about four windows.
        mover = Target(rho=np.zeros(3), velocity=(3.0, 0.0, 0.0), amplitude=2.0)
        trace = simulate(
            flat_scene([(-6.0, 1.0, 0.0), (6.0, -1.0, 0.0), mover], n=64)
        )
        n_cols = trace.m + 1
        length = choose_window(n_cols, trace.bandwidth, trace.axis.dt).length
        assert 3 * length < n_cols
        sep = separate_movers(trace, max_movers=1, extent=16.0)
        # The removal route runs no split of its own: the one record is the peel.
        ((window,),) = sep.diagnostics["windows"]
        a, b = window["columns"]
        assert b - a == length
        assert 0 <= a and b <= n_cols
        assert a <= int(np.argmin(np.abs(trace.t_times))) < b
        assert sep.estimates[0].u == pytest.approx(3.0, abs=0.1)

    def test_a_short_gate_is_split_whole(self):
        trace = simulate(flat_scene([(1.0, 0.0, 0.0)], n=64))
        n_cols = trace.m + 1
        assert choose_window(n_cols, trace.bandwidth, trace.axis.dt).length == n_cols
        sep = separate_movers(trace, extent=12.0)
        assert sep.movers
        for peel in sep.diagnostics["windows"]:
            assert [w["columns"] for w in peel] == [[0, n_cols]]

    @staticmethod
    def peel_with_delays(monkeypatch, shift):
        """``motion._peel`` of noise on a 2025-sample gate whose track
        advances row 0 by ``shift`` of the gate and the invalid last
        row half a gate back, with the straightened trace and the spans
        it split.  The window is columns 704 .. 1321."""
        dt = 1.0 / (2.5 * Radar().nu0)
        data = np.random.default_rng(5).standard_normal((9, 2025))
        trace = compressed_trace(data, valid_rows=(0, 8)).replace(
            axis=FastTimeAxis(m=2024, dt=dt, t_center=0.0)
        )
        delays = np.zeros(9)
        delays[0] = shift * 2025 * dt
        delays[8] = -0.5 * 2025 * dt
        monkeypatch.setattr(annihil, "_track_delays", lambda *args: delays)
        monkeypatch.setattr(motion, "_track_delays", lambda *args: delays)
        seen = []

        def record(straightened, layout, spans):
            seen.append((straightened, spans))
            return _separate_spans(straightened, layout, spans)

        monkeypatch.setattr(motion, "_separate_spans", record)
        frame = make_frame(trace.traj, trace.rho_o)
        scan = VelocityEstimate(
            u=0.0, u_perp=0.0, rho=np.zeros(3), g_score=1.0, frame=frame
        )
        peeled = motion._peel(trace, scan)
        ((straightened, spans),) = seen
        return trace, scan, delays, peeled, straightened, spans

    def test_a_window_inside_the_gate_peels_the_unwidened_trace(self, monkeypatch):
        # 0.1 of the gate keeps every column of row 0's window inside.
        trace, scan, _, peeled, straightened, spans = self.peel_with_delays(
            monkeypatch, 0.1
        )
        mover, split, _ = peeled
        assert straightened.axis == trace.axis and spans == [(704, 1321)]
        before = tt_forward(trace, scan.rho, scan.u_vec)
        np.testing.assert_array_equal(straightened.data, before.data)
        before = _separate_spans(before, WindowLayout(617, 0), [(704, 1321)])
        np.testing.assert_array_equal(split.low.data, before.low.data)
        np.testing.assert_array_equal(split.sparse.data, before.sparse.data)
        before = tt_inverse(before.low, scan.rho, scan.u_vec)
        np.testing.assert_array_equal(mover.data, before.data)

    def test_a_window_past_the_gate_edge_reads_zeros(self, monkeypatch):
        # Row 0 reads 810 samples ahead, so its window columns 1215 ..
        # 1320 read up to 106 samples past the gate's end; the invalid
        # last row counts for nothing.
        trace, _, delays, peeled, straightened, spans = self.peel_with_delays(
            monkeypatch, 0.4
        )
        mover, split, _ = peeled
        assert straightened.m + 1 == next_fast_odd(2025 + 2 * 106)
        offset = (straightened.m - trace.m) // 2
        assert spans == [(704 + offset, 1321 + offset)]
        padded = np.pad(trace.data, ((0, 0), (810, 810)))
        expected = fractional_shift(padded, delays, trace.axis.dt)
        np.testing.assert_allclose(
            straightened.data[:8, 704 + offset : 1321 + offset],
            expected[:8, 810 + 704 : 810 + 1321],
            rtol=0.0,
            atol=1e-12,
        )
        # The record keeps the gate's columns, and the mover its gate.
        assert split.diagnostics[0]["columns"] == [704, 1321]
        assert mover.axis == trace.axis and mover.data.shape == trace.data.shape

    @pytest.mark.parametrize(
        "zero_column, expected", [(1000, (692, 1309)), (10, (0, 617)), (3000, (1408, 2025))]
    )
    def test_the_window_is_moved_inside_the_gate(self, zero_column, expected):
        dt = 1.0 / (2.5 * Radar().nu0)
        axis = FastTimeAxis(m=2024, dt=dt, t_center=(1012 - zero_column) * dt)
        trace = compressed_trace(np.zeros((9, 2025))).replace(axis=axis)
        assert motion._peel_span(trace) == expected
