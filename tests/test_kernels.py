"""Checks of the echo accumulator against a direct per-sample sum, of the
backprojection sampler against cubic reference rows, and of the chunked
thread runs."""

import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from conftest import near_scene

from sarsep import imaging, kernels
from sarsep.annihil import AnnihilationPlan, annihilate
from sarsep.geom import Aperture
from sarsep.imaging import _BLOCK, ImageGrid, image_points
from sarsep.kernels import _in_blocks, accumulate_echoes, backproject_block
from sarsep.motion import g_curve, g_perp_curve
from sarsep.presets import preset_scene
from sarsep.scene import simulate
from sarsep.signal import pulse


class TestAccumulateEchoes:
    NU0 = 9.6e9
    BANDWIDTH = 622.0e6
    DT = 1.0 / (5.0 * NU0)
    HALF = 8.0 / BANDWIDTH
    N_T = 3000
    T0 = -1.0e-8

    def case(self):
        """Five overlapping echoes per row on six rows, with one echo
        clipped by each gate edge and two wholly outside the gate."""
        rng = np.random.default_rng(3)
        t_end = self.T0 + (self.N_T - 1) * self.DT
        tau = self.T0 + rng.uniform(0.3, 0.7, (6, 5)) * (t_end - self.T0)
        tau[1, 0] = self.T0 + 0.2 * self.HALF
        tau[2, 1] = t_end - 0.3 * self.HALF
        tau[3, 2] = self.T0 - 1.5 * self.HALF
        tau[4, 3] = t_end + 1.2 * self.HALF
        return tau, rng.uniform(0.5, 2.0, 5)

    def accumulate(self, out, tau, amps):
        args = (self.T0, self.DT, self.NU0, self.BANDWIDTH, amps, self.HALF)
        return accumulate_echoes(out, tau, *args)

    def direct(self, tau, amps):
        """Per-sample sum of amps[k] pulse(t_i - tau[j, k]) over each
        echo's samples, and the mask of the samples some echo covers."""
        i = np.arange(self.N_T)
        t = self.T0 + i * self.DT
        out = np.zeros((tau.shape[0], self.N_T))
        touched = np.zeros(out.shape, dtype=bool)
        for j, k in np.ndindex(tau.shape):
            lo = np.ceil((tau[j, k] - self.HALF - self.T0) / self.DT)
            hi = np.floor((tau[j, k] + self.HALF - self.T0) / self.DT)
            echo = (i >= lo) & (i <= hi)
            out[j, echo] += amps[k] * pulse(
                t[echo] - tau[j, k], self.NU0, self.BANDWIDTH
            )
            touched[j] |= echo
        return out, touched

    def test_matches_the_direct_sum_on_the_same_samples(self):
        tau, amps = self.case()
        expected, touched = self.direct(tau, amps)
        assert touched[1, 0] and touched[2, -1]
        out = self.accumulate(np.zeros_like(expected), tau, amps)
        np.testing.assert_array_equal(out != 0.0, touched)
        peak = np.abs(expected).max()
        assert np.abs(out - expected).max() <= 1e-11 * peak

    def test_echoes_outside_the_gate_add_nothing(self):
        tau, amps = self.case()
        outside = np.array([[tau[3, 2], tau[4, 3]]])
        out = self.accumulate(np.zeros((1, self.N_T)), outside, amps[:2])
        assert np.all(out == 0.0)

    def test_adds_into_a_nonzero_out(self):
        tau, amps = self.case()
        expected, touched = self.direct(tau, amps)
        base = np.random.default_rng(4).standard_normal(expected.shape)
        out = self.accumulate(base.copy(), tau, amps)
        np.testing.assert_array_equal(out[~touched], base[~touched])
        peak = np.abs(expected).max()
        assert np.abs(out - base - expected).max() <= 1e-11 * peak

    def test_row_blocks_on_any_workers_give_the_same_bits(self, monkeypatch):
        tau, amps = self.case()
        whole = self.accumulate(np.zeros((6, self.N_T)), tau, amps)
        # One row per block: each row spans about 5 x 1235 echo samples.
        monkeypatch.setattr(kernels, "_ECHO_CHUNK", 8000)
        for workers in (1, 3):
            monkeypatch.setattr(kernels, "_WORKERS", workers)
            out = self.accumulate(np.zeros((6, self.N_T)), tau, amps)
            np.testing.assert_array_equal(out, whole)


class TestBackprojectBlock:
    M = 64
    # A power of two with t0 = 0 keeps (dtau - t0) / dt exactly the
    # intended fractional sample index, so the edge cases land on the
    # base index they are meant to.
    DT = 2.0**-32

    def cubic(self, coeffs, x):
        """Row j's cubic at sample index x; real part >= 1 for 0 <= x <= M."""
        u = x / self.M
        return sum(coeffs[:, p, None] * u**p for p in range(4)) + (3.0 + 3.0j)

    def case(self):
        rng = np.random.default_rng(7)
        n_rows, n_pix = 5, 300
        coeffs = rng.uniform(-0.5, 0.5, (n_rows, 4, 2)) @ np.array([1.0, 1.0j])
        grid = np.tile(np.arange(self.M, dtype=float), (n_rows, 1))
        rows = self.cubic(coeffs, grid)
        x = rng.uniform(-3.0, self.M + 2.0, size=(n_rows, n_pix))
        m = self.M
        # Base indices -3, -1, 0, 1, 1, m-3, m-2, m-2, m+1: both ends of
        # the valid range and one step past each.
        x[:, :9] = [-2.5, -0.5, 0.25, 1.0, 1.5, m - 2.25, m - 2.0, m - 1.5, m + 1.5]
        base = np.floor(x)
        inside = (base >= 1) & (base <= m - 3)
        return rows, x, self.cubic(coeffs, x), inside

    def test_in_range_samples_reproduce_the_cubic(self):
        rows, x, exact, inside = self.case()
        assert inside.any() and (~inside).any()
        for j in range(rows.shape[0]):
            acc, missed = backproject_block(
                rows[j : j + 1], 0.0, self.DT, x[j : j + 1] * self.DT
            )
            np.testing.assert_allclose(
                acc[inside[j]], exact[j, inside[j]], rtol=1e-12, atol=0
            )
            assert np.all(acc[~inside[j]] == 0.0)
            np.testing.assert_array_equal(missed, (~inside[j]).astype(np.int64))

    def test_missed_counts_rows_whose_base_leaves_the_grid(self):
        rows, x, exact, inside = self.case()
        acc, missed = backproject_block(rows, 0.0, self.DT, x * self.DT)
        np.testing.assert_array_equal(missed, (~inside).sum(axis=0))
        expected = np.where(inside, exact, 0.0).sum(axis=0)
        np.testing.assert_allclose(acc, expected, rtol=1e-12, atol=0)

    def test_block_with_no_sample_in_the_gate_is_zero(self):
        rows, x, _, _ = self.case()
        n_rows, n_pix = x.shape
        x[:, : n_pix // 2] = -5.0 + x[:, : n_pix // 2] % 1.0
        x[:, n_pix // 2 :] = self.M + 1.0 + x[:, n_pix // 2 :] % 1.0
        acc, missed = backproject_block(rows, 0.0, self.DT, x * self.DT)
        assert acc.shape == (n_pix,) and np.all(acc == 0.0)
        np.testing.assert_array_equal(missed, np.full(n_pix, n_rows))


def parent_backproject_block(rows, t0, dt, dtau):
    """The kernel before the scatter-and-sum rewrite, kept as an oracle:
    ``np.nonzero`` compaction, 2-D gathers and three ``np.bincount``s."""
    n_rows, n_pix = dtau.shape
    width = rows.shape[1]
    x = (dtau - t0) / dt
    base = np.floor(x)
    row, pix = np.nonzero((base >= 1.0) & (base <= width - 3))
    x = x[row, pix]
    base = base[row, pix]
    frac = x - base
    start = row * width + base.astype(np.int64)
    flat = rows.reshape(-1)
    vals = (-frac * (frac - 1.0) * (frac - 2.0) / 6.0) * flat.take(start - 1)
    vals += ((frac + 1.0) * (frac - 1.0) * (frac - 2.0) / 2.0) * flat.take(start)
    vals += (-(frac + 1.0) * frac * (frac - 2.0) / 2.0) * flat.take(start + 1)
    vals += ((frac + 1.0) * frac * (frac - 1.0) / 6.0) * flat.take(start + 2)
    acc = np.empty(n_pix, dtype=complex)
    acc.real = np.bincount(pix, weights=vals.real, minlength=n_pix)
    acc.imag = np.bincount(pix, weights=vals.imag, minlength=n_pix)
    return acc, n_rows - np.bincount(pix, minlength=n_pix)


def assert_matches_the_oracle(rows, t0, dt, dtau):
    acc, missed = backproject_block(rows, t0, dt, dtau)
    expected_acc, expected_missed = parent_backproject_block(rows, t0, dt, dtau)
    assert np.array_equal(acc, expected_acc)
    assert np.array_equal(missed, expected_missed)
    return missed


class TestMatchesTheParentKernel:
    """The kernel's sums are bit-identical to the parent's per-pixel
    ``bincount`` in row order, whatever share of the block is in the gate."""

    DT = 1.0e-12

    def rows(self, n_rows):
        rng = np.random.default_rng(11)
        return rng.standard_normal((n_rows, 400)) + 1j * rng.standard_normal(
            (n_rows, 400)
        )

    def dtau(self, shape, lo, hi):
        # Sample indices uniform over [lo, hi) of the 400-sample rows.
        return np.random.default_rng(12).uniform(lo, hi, shape) * self.DT

    @pytest.mark.parametrize(
        "lo, hi, fewest, most",
        [
            (1.0, 397.99, 0, 0),
            (-300.0, -2.0, 87 * 256, 87 * 256),
            (-100.0, 500.0, 1, 87 * 256 - 1),
        ],
        ids=["all-in-gate", "none-in-gate", "mixed"],
    )
    def test_blocks_of_many_rows_and_pixels(self, lo, hi, fewest, most):
        dtau = self.dtau((87, 256), lo, hi)
        missed = assert_matches_the_oracle(self.rows(87), 0.0, self.DT, dtau)
        assert fewest <= missed.sum() <= most

    def test_one_row(self):
        missed = assert_matches_the_oracle(
            self.rows(1), 0.0, self.DT, self.dtau((1, 256), -100.0, 500.0)
        )
        assert 0 < missed.sum() < 256

    @pytest.mark.parametrize("n_rows", [1, 9, 87, 300])
    def test_one_pixel(self, n_rows):
        # numpy sums a lone column pairwise from nine rows on, so the
        # order of the additions shows here first.
        assert_matches_the_oracle(
            self.rows(n_rows), 0.0, self.DT, self.dtau((n_rows, 1), -20.0, 420.0)
        )

    def test_the_blocks_of_a_mover_focus_image(self, monkeypatch):
        """A 167 x 167 compensated image around the first mover of
        scene1 reduced as the benchmark reduces it (positions / 8,
        velocities / 2, 87 pulses, 2.5 samples per carrier cycle), on
        that scene's gate."""
        spec = preset_scene("scene1")
        reduced = dataclasses.replace(
            spec,
            aperture=Aperture(n=86, ds=spec.aperture.ds),
            radar=dataclasses.replace(spec.radar, dt=1.0 / (2.5 * spec.radar.nu0)),
            targets=tuple(
                dataclasses.replace(t, rho=t.rho / 8.0, velocity=t.velocity / 2.0)
                for t in spec.targets
            ),
        )
        mover = reduced.moving_targets[0]
        trace = simulate(reduced.subset([mover]), axis=simulate(reduced).axis)
        blocks = []

        def checked(*args):
            blocks.append(assert_matches_the_oracle(*args).sum())
            return backproject_block(*args)

        monkeypatch.setattr(imaging, "backproject_block", checked)
        grid = ImageGrid(mover.rho, 40.0, 40.0, 0.24)
        assert grid.shape == (167, 167)
        _, missed = image_points(trace, grid.points(), mover.velocity)
        assert len(blocks) == -(-167 * 167 // _BLOCK)
        assert 0 < missed == sum(blocks) < 167 * 167 * (trace.n + 1)


class TestInChunks:
    @staticmethod
    def span(a, b):
        return (a, b)

    def test_chunks_cover_the_range_in_order(self, monkeypatch):
        for workers in (1, 3):
            monkeypatch.setattr(kernels, "_WORKERS", workers)
            for size in (1, 3, 7):
                expected = [(a, min(a + size, 10)) for a in range(0, 10, size)]
                assert _in_blocks(self.span, 10, size) == expected
            assert _in_blocks(self.span, 0, 3) == []

    def test_row_chunks_cover_the_rows_in_order(self, monkeypatch):
        # The blocks depend on the size alone, never on the workers.
        for workers in (1, 2, 3, 8):
            monkeypatch.setattr(kernels, "_WORKERS", workers)
            assert _in_blocks(self.span, 10, 3) == [(0, 3), (3, 6), (6, 9), (9, 10)]
            assert _in_blocks(self.span, 2, 3) == [(0, 2)]

    def test_one_worker_runs_one_chunk_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(kernels, "_WORKERS", 1)
        caller = threading.current_thread()
        assert _in_blocks(lambda a, b: (a, b, threading.current_thread()), 7, 3) == [
            (0, 3, caller), (3, 6, caller), (6, 7, caller)
        ]

    def test_one_block_runs_in_the_caller_and_opens_no_pool(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-block call opened a pool")

        monkeypatch.setattr(kernels, "_WORKERS", 3)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        caller = threading.current_thread()
        assert _in_blocks(lambda a, b: (a, b, threading.current_thread()), 7, 8) == [
            (0, 7, caller)
        ]

    @pytest.mark.parametrize("failing", [0, 2])
    def test_an_exception_in_a_chunk_reaches_the_caller(self, monkeypatch, failing):
        monkeypatch.setattr(kernels, "_WORKERS", 3)
        finished = []

        def part(a, b):
            if a == 3 * failing:
                raise ValueError(f"chunk at {a}")
            finished.append(a)
            return a

        with pytest.raises(ValueError, match=f"chunk at {3 * failing}"):
            _in_blocks(part, 9, 3)
        # The call returns only after every other run has finished.
        assert sorted(finished) == sorted({0, 3, 6} - {3 * failing})

    def test_a_nested_call_runs_inline_and_does_not_hang(self, monkeypatch):
        monkeypatch.setattr(kernels, "_WORKERS", 2)

        def inner(a, b):
            return (a, b, threading.current_thread())

        def outer(a, b):
            return threading.current_thread(), _in_blocks(inner, 4, 2)

        result = []
        caller = threading.Thread(target=lambda: result.append(_in_blocks(outer, 2, 1)))
        caller.start()
        caller.join(timeout=60.0)
        assert not caller.is_alive(), "nested _in_blocks call hung"
        (first, first_inner), (worker, worker_inner) = result[0]
        assert first is caller and worker is not caller
        # Each nested call opens its own pool, on either thread.
        assert [c[:2] for c in first_inner] == [(0, 2), (2, 4)]
        assert [c[:2] for c in worker_inner] == [(0, 2), (2, 4)]

    def test_no_thread_outlives_a_scan_or_an_image(self, monkeypatch):
        monkeypatch.setattr(kernels, "_WORKERS", 3)
        trace = simulate(near_scene([(1.0, 2.0, 0.0)], n=32))
        g_curve(trace, np.linspace(-4.0, 4.0, 9))
        points = ImageGrid(np.array([1.0, 2.0, 0.0]), 4.0, 3.0, 0.1).points()
        image_points(trace, points[: 2 * _BLOCK + 5])
        annihilate(trace, AnnihilationPlan.for_points([(1.0, 2.0, 0.0)]))
        alive = [t.name for t in threading.enumerate() if t.name.startswith("sarsep")]
        assert alive == []

    def test_an_empty_speed_grid_gives_empty_curves(self):
        trace = simulate(near_scene([(1.0, 2.0, 0.0)], n=32))
        for grid, values in (
            g_curve(trace, np.array([])),
            g_perp_curve(trace, np.zeros(3), 1.0, np.array([])),
        ):
            assert grid.shape == values.shape == (0,)
            assert values.dtype == float


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity control"
)
def test_one_cpu_affinity_starts_no_thread_and_keeps_the_results():
    """On a one-CPU mask the scans and images run in the calling thread
    and give the same curves and values as three threads."""
    tests = Path(__file__).resolve().parent
    code = """
import os, sys, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from conftest import near_scene
from sarsep import imaging, kernels, motion
from sarsep.scene import simulate
if len(sys.argv) > 1:
    kernels._WORKERS = int(sys.argv[1])
trace = simulate(near_scene([(1.0, 2.0, 0.0)], n=32))
g = motion.g_curve(trace, np.linspace(-4.0, 4.0, 9))[1]
grid = imaging.ImageGrid(np.zeros(3), 4.0, 3.0, 0.1)
points = grid.points()[: 2 * imaging._BLOCK + 5]
values, missed = imaging.image_points(trace, points)
print(kernels._WORKERS, threading.active_count(), missed)
print(g.tobytes().hex())
print(values.tobytes().hex())
"""
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    env = {**os.environ, "PYTHONPATH": path}

    def run(*args):
        done = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", code, *args],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.split("\n")

    alone, pooled = run(), run("3")
    assert alone[0].split()[:2] == ["1", "1"]
    # Each pooled call joins its threads before it returns.
    assert pooled[0].split()[:2] == ["3", "1"]
    assert alone[0].split()[2] == pooled[0].split()[2]
    assert alone[1:] == pooled[1:]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_pool():
    """The parent's pool threads do not exist in a forked child; the
    child's first pooled call must start new ones, not wait forever."""
    tests = Path(__file__).resolve().parent
    code = """
import os
from sarsep import kernels
kernels._WORKERS = 2
assert kernels._in_blocks(lambda a, b: b - a, 10, 5) == [5, 5]
pid = os.fork()
if pid == 0:
    os._exit(0 if kernels._in_blocks(lambda a, b: b - a, 10, 5) == [5, 5] else 1)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
"""
    env = {**os.environ, "PYTHONPATH": str(tests.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="needs CPU affinity queries"
)
def test_the_pool_is_capped_however_many_cpus_there_are():
    """Each worker holds one block or scan batch, so the worker count
    stops at ``_MAX_WORKERS`` on a many-CPU affinity mask."""
    tests = Path(__file__).resolve().parent
    code = """
import os
os.sched_getaffinity = lambda pid: set(range(64))
from sarsep import kernels
print(kernels._WORKERS, kernels._MAX_WORKERS)
"""
    env = {**os.environ, "PYTHONPATH": str(tests.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    workers, cap = done.stdout.split()
    assert workers == cap == "4"
