"""Spans and counts recorded around sarsep's public entry points.

Tracing lives entirely in the benchmark: ``Tracer.install`` replaces
module attributes with wrappers and ``Tracer.remove`` puts the
originals back, so nothing under ``src/`` changes.  sarsep modules
import each other by name (``from .rpca import separate_windowed``), so
every name is wrapped in the module that looks it up, not only where
it is defined.

Each wrapped call appends a span (name, start, end, parent) to an
in-memory list and feeds its arguments and result to a counter.  The
span name's prefix before the first dot is the layer.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np


def _file_bytes(path) -> int:
    total = os.path.getsize(path)
    sidecar = f"{path}.json"
    if os.path.exists(sidecar):
        total += os.path.getsize(sidecar)
    return total


def _count_pcp(counts, args, result):
    counts["rpca.windows"] += 1
    counts["rpca.iters"] += result.iterations
    counts["rpca.cols"] += np.shape(args["matrix"])[1]
    counts["rpca.rank_sum"] += result.rank
    counts["rpca.unconverged"] += not result.converged
    counts["max:rpca.feasibility_max"] = max(
        counts["max:rpca.feasibility_max"], result.feasibility
    )


def _count_scan(key):
    def count(counts, args, result):
        counts[key] += np.size(result[0])

    return count


def _count_backproject(counts, args, result):
    dtau = args["dtau"]
    # Computed, not measured: each (pixel, pulse) sample reads its delay
    # (8 B) and four complex taps (64 B); each pixel writes one complex
    # sum and one miss count (24 B).
    counts["imaging.samples"] += dtau.size
    counts["imaging.missed"] += int(np.sum(result[1]))
    counts["kernels.backproject_bytes"] += 72 * dtau.size + 24 * dtau.shape[1]


def _count_shift(counts, args, result):
    trace = args["trace"]
    counts["signal.shift_samples"] += trace.data.size
    width = trace.axis.m * trace.axis.dt
    worst = float(np.max(np.abs(args["shifts"]))) / width
    counts["max:signal.max_shift_frac"] = max(
        counts["max:signal.max_shift_frac"], worst
    )


def _count_stages(counts, args, result):
    counts["annihil.stages"] += len(args["plan"].stages)


def _count_echoes(counts, args, result):
    pairs = np.size(args["tau"])
    counts["kernels.echo_pairs"] += pairs
    # Computed: samples inside each echo's clipped support, before the
    # gate edges trim them.
    per_pair = int(2.0 * args["half_support"] / args["dt"]) + 1
    counts["kernels.echo_samples"] += pairs * per_pair


def _count_cov(counts, args, result):
    counts["ranklab.cov_entries"] += result.size


def _count_rank(counts, args, result):
    counts["ranklab.rank_n"] += args["matrix"].shape[0]


def _count_written(counts, args, result):
    counts["io.bytes_written"] += _file_bytes(result)


def _count_read(counts, args, result):
    counts["io.bytes_read"] += _file_bytes(args["path"])


#: (module, attribute, span name, counter) for every wrapped lookup.
ENTRY_POINTS = (
    ("sarsep.motion", "separate_movers", "motion.separate_movers", None),
    ("sarsep.motion", "g_curve", "motion.g", _count_scan("motion.g_trials")),
    (
        "sarsep.motion",
        "g_perp_curve",
        "motion.g_perp",
        _count_scan("motion.g_perp_trials"),
    ),
    ("sarsep.motion", "estimate_location", "motion.locate", None),
    ("sarsep.motion", "separate_windowed", "rpca.separate", None),
    ("sarsep.motion", "image_compensated", "imaging.image", None),
    ("sarsep.motion", "tt_forward", "annihil.tt", None),
    ("sarsep.motion", "tt_inverse", "annihil.tt", None),
    ("sarsep.rpca", "pcp_solve", "rpca.pcp", _count_pcp),
    ("sarsep.imaging", "image_compensated", "imaging.image", None),
    ("sarsep.imaging", "backproject_block", "kernels.backproject", _count_backproject),
    ("sarsep.annihil", "annihilate", "annihil.annihilate", _count_stages),
    ("sarsep.annihil", "tt_forward", "annihil.tt", None),
    ("sarsep.annihil", "tt_inverse", "annihil.tt", None),
    ("sarsep.annihil", "fast_time_shift", "signal.shift", _count_shift),
    ("sarsep.scene", "simulate", "scene.simulate", None),
    ("sarsep.scene", "simulate_split", "scene.simulate_split", None),
    ("sarsep.scene", "accumulate_echoes", "kernels.accumulate", _count_echoes),
    ("sarsep.ranklab", "simulate", "scene.simulate", None),
    ("sarsep.ranklab", "rank_study", "ranklab.study", None),
    ("sarsep.ranklab", "theoretical_covariance", "ranklab.cov", _count_cov),
    ("sarsep.ranklab", "covariance", "ranklab.cov", _count_cov),
    ("sarsep.ranklab", "numeric_rank", "ranklab.rank", _count_rank),
    ("sarsep.io", "write_trace", "io.write", _count_written),
    ("sarsep.io", "read_trace", "io.read", _count_read),
    ("sarsep.io", "write_pgm", "io.write", _count_written),
)


class Tracer:
    """Records spans and counts while installed.

    ``spans`` holds [name, start, end, parent index or -1]; ``counts``
    holds additive totals, and keys starting with ``max:`` hold maxima.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def reset(self):
        self.spans = []
        self.counts = defaultdict(float)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, span_name, counter in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, counter))

    def remove(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, func, span_name, counter):
        signature = inspect.signature(func)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([span_name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments, result)
            return result

        traced.__wrapped__ = func
        return traced

    def totals(self) -> dict:
        """Span-derived totals merged with the counts.

        ``time:<name>`` sums spans of that name not nested in another
        span of the same name; ``calls:<name>`` counts them all;
        ``layer:<layer>`` sums that layer's spans not nested in another
        span of the same layer; ``self:<layer>`` sums its span durations
        minus their direct children; ``top`` sums the spans with no
        parent.
        """
        out = defaultdict(float, self.counts)
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            out[f"calls:{name}"] += 1
            layer = name.split(".")[0]
            out[f"self:{layer}"] += duration - child_time[index]
            if parent < 0:
                out["top"] += duration
            if not self._nested(parent, lambda other: other == name):
                out[f"time:{name}"] += duration
            if not self._nested(parent, lambda other: other.split(".")[0] == layer):
                out[f"layer:{layer}"] += duration
        return out

    def _nested(self, ancestor: int, match) -> bool:
        while ancestor >= 0:
            if match(self.spans[ancestor][0]):
                return True
            ancestor = self.spans[ancestor][3]
        return False


def combine(setup: dict, traced_pass: dict) -> dict:
    """Totals of one set-up plus one pass."""
    out = defaultdict(float)
    for key in set(setup) | set(traced_pass):
        a, b = setup.get(key, 0.0), traced_pass.get(key, 0.0)
        out[key] = max(a, b) if key.startswith("max:") else a + b
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: dict) -> dict:
    """Per-layer metric values (name -> number) from combined totals."""
    pcp_s = t["time:rpca.pcp"]
    image_s = t["time:imaging.image"]
    return {
        "rpca.windows": t["rpca.windows"],
        "rpca.pcp_s": pcp_s,
        "rpca.iters": t["rpca.iters"],
        "rpca.s_per_iter": _ratio(pcp_s, t["rpca.iters"]),
        "rpca.cols": t["rpca.cols"],
        "rpca.rank_mean": _ratio(t["rpca.rank_sum"], t["rpca.windows"]),
        "rpca.unconverged": t["rpca.unconverged"],
        "rpca.feasibility_max": t["max:rpca.feasibility_max"],
        "motion.g_calls": t["calls:motion.g"],
        "motion.g_trials": t["motion.g_trials"],
        "motion.g_s": t["time:motion.g"],
        "motion.g_perp_calls": t["calls:motion.g_perp"],
        "motion.g_perp_trials": t["motion.g_perp_trials"],
        "motion.g_perp_s": t["time:motion.g_perp"],
        "motion.locate_calls": t["calls:motion.locate"],
        "motion.locate_s": t["time:motion.locate"],
        "motion.self_s": t["self:motion"],
        "imaging.images": t["calls:imaging.image"],
        "imaging.image_s": image_s,
        "imaging.samples": t["imaging.samples"],
        "imaging.missed": t["imaging.missed"],
        "imaging.useful_frac": (
            1.0 - _ratio(t["imaging.missed"], t["imaging.samples"])
            if t["imaging.samples"]
            else 0.0
        ),
        "imaging.ns_per_sample": 1e9 * _ratio(image_s, t["imaging.samples"]),
        "kernels.backproject_calls": t["calls:kernels.backproject"],
        "kernels.backproject_s": t["time:kernels.backproject"],
        "kernels.backproject_bytes": t["kernels.backproject_bytes"],
        "signal.shift_calls": t["calls:signal.shift"],
        "signal.shift_samples": t["signal.shift_samples"],
        "signal.shift_s": t["time:signal.shift"],
        "signal.max_shift_frac": t["max:signal.max_shift_frac"],
        "annihil.tt_calls": t["calls:annihil.tt"],
        "annihil.tt_s": t["time:annihil.tt"],
        "annihil.annihilate_s": t["time:annihil.annihilate"],
        "annihil.stages": t["annihil.stages"],
        "scene.simulate_calls": t["calls:scene.simulate"],
        "scene.simulate_s": t["layer:scene"],
        "kernels.accumulate_s": t["time:kernels.accumulate"],
        "kernels.echo_pairs": t["kernels.echo_pairs"],
        "kernels.echo_samples": t["kernels.echo_samples"],
        "ranklab.cov_s": t["time:ranklab.cov"],
        "ranklab.cov_entries": t["ranklab.cov_entries"],
        "ranklab.rank_s": t["time:ranklab.rank"],
        "ranklab.rank_n": t["ranklab.rank_n"],
        "io.bytes_written": t["io.bytes_written"],
        "io.write_s": t["time:io.write"],
        "io.bytes_read": t["io.bytes_read"],
        "io.read_s": t["time:io.read"],
    }
