"""Checks of the backprojection sampler against cubic reference rows, and
of the chunked thread runs."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from conftest import near_scene

from sarsep import kernels
from sarsep.imaging import _BLOCK, ImageGrid, image_points
from sarsep.kernels import _in_chunks, backproject_block
from sarsep.motion import g_curve
from sarsep.scene import simulate


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


class TestInChunks:
    def test_chunks_cover_the_range_in_order(self, monkeypatch):
        monkeypatch.setattr(kernels, "_WORKERS", 3)
        assert _in_chunks(lambda a, b: (a, b), 10) == [(0, 3), (3, 6), (6, 10)]
        assert _in_chunks(lambda a, b: (a, b), 2) == [(0, 1), (1, 2)]
        assert _in_chunks(lambda a, b: (a, b), 0) == [(0, 0)]

    def test_one_worker_runs_one_chunk_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(kernels, "_WORKERS", 1)
        caller = threading.current_thread()
        assert _in_chunks(lambda a, b: (a, b, threading.current_thread()), 7) == [
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
            _in_chunks(part, 9)
        # The call returns only after every other chunk has finished.
        assert sorted(finished) == sorted({0, 3, 6} - {3 * failing})

    def test_a_nested_call_runs_inline_and_does_not_hang(self, monkeypatch):
        monkeypatch.setattr(kernels, "_WORKERS", 2)

        def inner(a, b):
            return (a, b, threading.current_thread())

        def outer(a, b):
            return threading.current_thread(), _in_chunks(inner, 4)

        result = []
        caller = threading.Thread(target=lambda: result.append(_in_chunks(outer, 2)))
        caller.start()
        caller.join(timeout=60.0)
        assert not caller.is_alive(), "nested _in_chunks call hung"
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
        alive = [t.name for t in threading.enumerate() if t.name.startswith("sarsep")]
        assert alive == []


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
assert kernels._in_chunks(lambda a, b: b - a, 10) == [5, 5]
pid = os.fork()
if pid == 0:
    os._exit(0 if kernels._in_chunks(lambda a, b: b - a, 10) == [5, 5] else 1)
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
