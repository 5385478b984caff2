"""Principal component pursuit and windowed separation."""

import numpy as np
import pytest
from conftest import compressed_trace

from sarsep.rpca import (
    SeparationResult,
    WindowLayout,
    _svd_threshold,
    choose_window,
    pcp_solve,
    separate_windowed,
)
from sarsep.scene import Radar


def make_instance(rng, rows=60, cols=120, rank=3, support=0.05, spike=5.0):
    """Random low-rank plus sparse pair in the standard recovery regime."""
    left = rng.normal(size=(rows, rank)) / np.sqrt(rows)
    right = rng.normal(size=(rank, cols)) / np.sqrt(cols)
    low = left @ right
    sparse = np.zeros((rows, cols))
    mask = rng.random((rows, cols)) < support
    sparse[mask] = spike * np.abs(low).max() * rng.choice([-1.0, 1.0], mask.sum())
    return low, sparse


def reference_svt(g, threshold):
    """Singular value thresholding by a full SVD."""
    u, values, vt = np.linalg.svd(g, full_matrices=False)
    kept = int(np.sum(values > threshold))
    return (u[:, :kept] * (values[:kept] - threshold)) @ vt[:kept], kept


class TestSvdThreshold:
    @pytest.mark.parametrize(
        "shape, rank, kept",
        [((30, 70), 30, 12), ((70, 30), 30, 12), ((87, 617), 3, 3)],
        ids=["wide", "tall", "rank-3"],
    )
    def test_matches_the_svd_reference(self, shape, rank, kept):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
        values = np.linalg.svd(g, compute_uv=False)
        # Midway between two singular values, so no value sits at the cut.
        threshold = 0.5 * (values[kept - 1] + values[kept])
        low, count = _svd_threshold(g, threshold)
        expected, expected_count = reference_svt(g, threshold)
        assert count == expected_count == kept
        assert low.shape == g.shape
        assert np.linalg.norm(low - expected) <= 1e-10 * np.linalg.norm(g)

    def test_everything_below_the_threshold_gives_zeros(self):
        g = np.random.default_rng(6).normal(size=(40, 90))
        threshold = 1.01 * np.linalg.svd(g, compute_uv=False)[0]
        low, count = _svd_threshold(g, threshold)
        assert count == 0
        assert low.shape == g.shape and np.all(low == 0.0)


class TestPcpSolve:
    def test_exact_recovery(self):
        rng = np.random.default_rng(7)
        low, sparse = make_instance(rng)
        sol = pcp_solve(low + sparse)
        assert sol.converged
        assert sol.feasibility <= 1e-7
        assert np.linalg.norm(sol.low - low) <= 1e-5 * np.linalg.norm(low)
        assert np.linalg.norm(sol.sparse - sparse) <= 1e-5 * np.linalg.norm(sparse)
        assert sol.rank == 3

    def test_transposed_input_gives_the_transposed_split(self):
        rng = np.random.default_rng(8)
        low, sparse = make_instance(rng, rows=40, cols=90)
        m = low + sparse
        wide, tall = pcp_solve(m), pcp_solve(m.T)
        assert tall.iterations == wide.iterations
        assert tall.rank == wide.rank
        scale = np.abs(m).max()
        np.testing.assert_allclose(tall.low, wide.low.T, rtol=0, atol=1e-10 * scale)
        np.testing.assert_allclose(
            tall.sparse, wide.sparse.T, rtol=0, atol=1e-10 * scale
        )

    def test_zero_matrix_short_circuits(self):
        sol = pcp_solve(np.zeros((8, 12)))
        assert sol.converged and sol.rank == 0
        assert sol.feasibility == 0.0
        assert np.all(sol.low == 0.0) and np.all(sol.sparse == 0.0)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            pcp_solve(np.ones(10))
        bad = np.ones((4, 4))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            pcp_solve(bad)
        for eta in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive eta"):
                pcp_solve(np.ones((4, 6)), eta=eta)
        for max_iter in (0, -3):
            with pytest.raises(ValueError, match="max_iter"):
                pcp_solve(np.ones((4, 6)), max_iter=max_iter)
        for tol in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="positive tol"):
                pcp_solve(np.ones((4, 6)), tol=tol)

    def test_iteration_cap_warns_and_flags(self):
        rng = np.random.default_rng(3)
        low, sparse = make_instance(rng, rows=20, cols=30, rank=2)
        with pytest.warns(RuntimeWarning, match="iteration cap"):
            sol = pcp_solve(low + sparse, max_iter=2)
        assert not sol.converged
        assert sol.iterations == 2


class TestWindowLayout:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            WindowLayout(length=0, overlap=0)
        with pytest.raises(ValueError, match="overlap"):
            WindowLayout(length=10, overlap=10)
        with pytest.raises(ValueError, match="overlap"):
            WindowLayout(length=10, overlap=-1)

    def test_spans_tile_every_column(self):
        layout = WindowLayout(length=10, overlap=3)
        spans = layout.spans(25)
        assert spans == [(0, 10), (7, 17), (14, 24), (15, 25)]
        covered = np.zeros(25, dtype=bool)
        for a, b in spans:
            assert b - a == 10
            covered[a:b] = True
        assert covered.all()

    def test_short_input_gets_a_single_span(self):
        assert WindowLayout(length=10, overlap=3).spans(8) == [(0, 8)]
        assert WindowLayout(length=10, overlap=3).spans(10) == [(0, 10)]


class TestChooseWindow:
    def test_desk_scale_layout(self):
        radar = Radar()
        layout = choose_window(8192, radar.bandwidth, radar.dt)
        assert layout.length == round(16.0 / (radar.bandwidth * radar.dt))
        assert layout.overlap == layout.length // 8

    def test_clamped_to_short_matrices(self):
        radar = Radar()
        layout = choose_window(50, radar.bandwidth, radar.dt)
        assert layout == WindowLayout(length=50, overlap=0)

    def test_clamped_to_the_minimum_length(self):
        radar = Radar()
        # Twenty times the bandwidth shortens the window to 62 samples.
        layout = choose_window(1000, 20.0 * radar.bandwidth, radar.dt)
        assert layout == WindowLayout(length=64, overlap=8)


class TestSeparateWindowed:
    @staticmethod
    def background_and_spikes(rows=21, cols=127, seed=2):
        rng = np.random.default_rng(seed)
        gain = 1.0 + 0.1 * np.cos(2.0 * np.pi * np.arange(rows) / rows)
        profile = np.exp(-0.5 * ((np.arange(cols) - cols / 2.0) / 12.0) ** 2)
        background = np.outer(gain, profile)
        spikes = np.zeros((rows, cols))
        for j in range(rows):
            spikes[j, (10 + 5 * j) % cols] = 3.0 * rng.choice([-1.0, 1.0])
        return background, spikes

    def test_parts_sum_back_to_the_input(self):
        background, spikes = self.background_and_spikes()
        trace = compressed_trace(background + spikes)
        res = separate_windowed(trace, layout=WindowLayout(length=48, overlap=8))
        assert isinstance(res, SeparationResult)
        assert res.feasibility <= 1e-6
        total = res.low.data + res.sparse.data
        np.testing.assert_allclose(
            total, trace.data, atol=1e-6 * np.max(np.abs(trace.data))
        )

    def test_windowed_split_recovers_both_parts(self):
        background, spikes = self.background_and_spikes()
        trace = compressed_trace(background + spikes)
        res = separate_windowed(trace, layout=WindowLayout(length=48, overlap=8))
        low_err = np.linalg.norm(res.low.data - background)
        sparse_err = np.linalg.norm(res.sparse.data - spikes)
        assert low_err <= 1e-3 * np.linalg.norm(background)
        assert sparse_err <= 1e-3 * np.linalg.norm(spikes)

    def test_output_contract(self):
        background, spikes = self.background_and_spikes()
        trace = compressed_trace(background + spikes)
        layout = WindowLayout(length=48, overlap=8)
        res = separate_windowed(trace, layout=layout)
        assert res.low.tag == res.sparse.tag == "filtered"
        assert res.low.meta["part"] == "low-rank"
        assert res.sparse.meta["part"] == "sparse"
        assert res.layout == layout
        assert len(res.diagnostics) == len(layout.spans(trace.m + 1))
        for entry in res.diagnostics:
            assert entry["converged"]
            assert entry["feasibility"] <= 1e-7

    def test_window_records_carry_the_solver_cost(self):
        background, spikes = self.background_and_spikes()
        trace = compressed_trace(background + spikes)
        res = separate_windowed(trace, layout=WindowLayout(length=48, overlap=8))
        for entry in res.diagnostics:
            assert set(entry) == {
                "window",
                "columns",
                "iterations",
                "converged",
                "feasibility",
                "rank",
                "sparse_fraction",
                "seconds",
            }
            assert 0.0 < entry["seconds"] < 60.0

    def test_default_layout_comes_from_the_metadata(self):
        background, spikes = self.background_and_spikes()
        radar = Radar()
        res = separate_windowed(compressed_trace(background + spikes))
        expected = choose_window(background.shape[1], radar.bandwidth, radar.dt)
        assert res.layout == expected

    def test_rejects_raw_traces(self):
        background, spikes = self.background_and_spikes()
        trace = compressed_trace(background + spikes).replace(tag="raw")
        with pytest.raises(ValueError, match="range-compressed"):
            separate_windowed(trace, layout=WindowLayout(length=48, overlap=8))

    def test_invalid_rows_stay_silent(self):
        background, spikes = self.background_and_spikes()
        trace = compressed_trace(background + spikes, valid_rows=(2, 19))
        res = separate_windowed(trace, layout=WindowLayout(length=48, overlap=8))
        for part in (res.low, res.sparse):
            assert np.all(part.data[:2] == 0.0)
            assert np.all(part.data[19:] == 0.0)
            assert part.valid_rows == (2, 19)
