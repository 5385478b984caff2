"""Benchmark for sarsep: end-to-end times, per-layer traces, output checks.

Usage, from the repository root::

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

With ``--trace 0`` the run sets up the workload several times, then
repeats untraced passes for ``--seconds`` and reports the end-to-end
metrics.  With ``--trace 1`` it sets up once with tracing on, runs
untraced passes for half the time, one traced pass and one pass in a
single-BLAS-thread child process, and reports the per-layer metrics.
Every pass's outputs are checked.  Report lines go to standard output;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check
passed.  ``--workload all`` runs each workload in its own process.

BLAS threads are pinned to the CPU count before numpy is imported.
sarsep is imported from ``src/`` next to this directory, never from an
installed copy.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
for _var in BLAS_THREAD_VARS:
    _wanted = int(os.environ.get(_var, NPROC) or NPROC)
    os.environ[_var] = str(max(1, min(_wanted, NPROC)))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170.0

#: Warning text -> per-layer counter.  Warnings are recorded, never
#: filtered, so every occurrence is counted.
WARNING_CLASSES = (
    ("circular wrap-around", "signal.wrap_warnings"),
    ("outside the fast-time gate", "imaging.missed_warnings"),
    ("iteration cap", "rpca.cap_warnings"),
    ("focus peak only", "motion.low_focus_warnings"),
    ("far-field expansions degrade", "scene.far_field_warnings"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    names = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy

    from sarsep import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                line.split(":", 1)[1].strip()
                for line in handle
                if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "has_numba": kernels.HAS_NUMBA,
    }


def count_warnings(caught, counts: dict):
    for item in caught:
        if not issubclass(item.category, RuntimeWarning):
            continue
        text = str(item.message)
        key = next((k for frag, k in WARNING_CLASSES if frag in text), "other_warnings")
        counts[key] = counts.get(key, 0) + 1


def recorded(func, counts: dict, *args):
    """Call ``func`` while recording (not suppressing) RuntimeWarnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = func(*args)
    count_warnings(caught, counts)
    return result


class Runner:
    """Sets up one workload, runs timed passes and checks their outputs."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.warnings: dict = {}
        self.checks_attempted = 0
        self.checks_failed = []
        self.quality: dict = {}

    def setup(self):
        import numpy as np

        rng = None if self.seed == 0 else np.random.default_rng(self.seed)
        started = time.perf_counter()
        inputs = recorded(self.workload.setup, self.warnings, rng, self.workdir)
        return inputs, time.perf_counter() - started

    def timed_pass(self, inputs) -> float:
        started = time.perf_counter()
        outputs = recorded(self.workload.run, self.warnings, inputs)
        elapsed = time.perf_counter() - started
        checks, quality = self.workload.score(inputs, outputs)
        self.checks_attempted += len(checks)
        self.checks_failed += [name for name, ok in checks.items() if not ok]
        self.quality = quality
        return elapsed

    def passes(self, inputs, budget: float, least: int) -> list[float]:
        """At least ``least`` passes, then more while the next one is
        expected to end within ``budget`` seconds of the first."""
        started = time.perf_counter()
        times = []
        while len(times) < least or (
            time.perf_counter() - started + statistics.median(times) <= budget
        ):
            times.append(self.timed_pass(inputs))
        return times


def child(workload: str, seed: int, seconds: float, trace: int, env=None):
    """Run one workload in a child process; return it and its result."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done, result


def serial_pass_s(args) -> float:
    """Median pass time of a child process with one BLAS thread."""
    env = {**os.environ, **{v: "1" for v in BLAS_THREAD_VARS}}
    done, result = child(args.workload, args.seed, 1, 0, env)
    if done.returncode != 0:
        raise RuntimeError(f"serial child failed:\n{done.stdout}{done.stderr}")
    return result["metrics"]["pass_s"]["value"]


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def run_end_to_end(runner, args) -> dict:
    setups = [runner.setup()[1] for _ in range(SETUP_REPEATS - 1)]
    inputs, last = runner.setup()
    setup_s = (time.perf_counter() - STARTED) - sum(setups) - last
    setup_s += statistics.median(setups + [last])
    times = runner.passes(inputs, args.seconds, least=2)
    print(f"passes {len(times)}: " + " ".join(f"{t:.3f}" for t in times))
    span = f"over {SETUP_REPEATS} set-ups and {len(times)} passes"
    for name, value in sorted(runner.warnings.items()):
        print(f"warnings {name} {value} {span}")
    return {
        "pass_s": statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(runner, args) -> dict:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        inputs, _ = runner.setup()
    finally:
        tracer.remove()
    setup_totals = tracer.totals()
    setup_warnings = dict(runner.warnings)
    tracer.reset()
    untraced = runner.passes(inputs, 0.5 * args.seconds, least=1)
    runner.warnings = dict(setup_warnings)
    tracer.install()
    try:
        traced = runner.timed_pass(inputs)
    finally:
        tracer.remove()
    pass_totals = tracer.totals()
    metrics = tracing.layer_metrics(tracing.combine(setup_totals, pass_totals))
    pass_s = statistics.median(untraced)
    metrics.update(
        {
            "trace.pass_s": traced,
            "trace.overhead_frac": traced / pass_s - 1.0,
            "trace.covered_frac": pass_totals["top"] / traced,
            "serial.pass_s": serial_pass_s(args),
        }
    )
    for _, key in WARNING_CLASSES:
        metrics[key] = runner.warnings.get(key, 0)
    for name in units("per_layer"):
        if name.startswith("quality."):
            metrics[name] = runner.quality.get(name.removeprefix("quality."), 0.0)
    print(f"untraced passes {len(untraced)}: " + " ".join(f"{t:.3f}" for t in untraced))
    return metrics


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import sarsep

    if Path(sarsep.__file__).resolve().parent != SRC / "sarsep":
        print(f"perfbench: imported sarsep from {sarsep.__file__}", file=sys.stderr)
        return 2
    from workloads import JITTER, WORKLOADS

    print("env " + json.dumps(environment()))
    print(f"workload {args.workload} seed {args.seed} jitter {json.dumps(JITTER)}")
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-io-", dir=ROOT))
    try:
        runner = Runner(WORKLOADS[args.workload], args.seed, workdir)
        if args.trace:
            values, section = run_traced(runner, args), "per_layer"
        else:
            values, section = run_end_to_end(runner, args), "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, value in runner.quality.items():
        print(f"quality {name} {value:.6g}")
    unit_of = units(section)
    missing = set(unit_of) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in unit_of.items()
    }
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    for name in runner.checks_failed:
        print(f"check failed: {name}")
    failed = len(runner.checks_failed)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": runner.checks_attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process; prints a summary table."""
    results, code = {}, 0
    for workload in SPEC["workloads"]:
        done, result = child(workload["name"], args.seed, args.seconds, args.trace)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or result is None:
            code = 1
        if result is not None:
            results[workload["name"]] = result
    print()
    for name, result in results.items():
        print(f"{name}: {result['failed']}/{result['attempted']} checks failed")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:28s} {entry['value']:14.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": code == 0,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}/{metric}": entry
                    for name, result in results.items()
                    for metric, entry in result["metrics"].items()
                },
            }
        )
    )
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sarsep" / "__init__.py").is_file():
        print(f"perfbench: no sarsep sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
