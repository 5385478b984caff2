"""The benchmark still fits the sarsep API it calls and wraps.

``perfbench/tracing.py`` replaces sarsep module attributes by name and
its counters read the wrapped calls' arguments by parameter name, and
``perfbench/workloads.py`` calls sarsep with positional and keyword
arguments, so a renamed or removed function or parameter would break
the benchmark.  These tests read ``perfbench/`` and change nothing in
it.
"""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

from sarsep import scene as sarscene

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def entry_points():
    for module_name, attr, _, counter in tracing.ENTRY_POINTS:
        yield importlib.import_module(module_name), attr, counter


def test_install_wraps_every_entry_point_and_remove_restores_it():
    originals = [(m, attr, getattr(m, attr)) for m, attr, _ in entry_points()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr, original in originals:
            wrapped = getattr(module, attr)
            assert wrapped is not original, f"{module.__name__}.{attr}"
            assert wrapped.__wrapped__ is original, f"{module.__name__}.{attr}"
    finally:
        tracer.remove()
    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_counters_read_only_parameters_of_the_wrapped_function():
    read = set()
    for module, attr, counter in entry_points():
        if counter is None:
            continue
        wanted = set(re.findall(r'args\["(\w+)"\]', inspect.getsource(counter)))
        params = inspect.signature(getattr(module, attr)).parameters
        missing = wanted - set(params)
        assert not missing, f"{module.__name__}.{attr} lacks {sorted(missing)}"
        read |= wanted
    # Guards the pattern above against matching nothing.
    assert {"matrix", "dtau", "shifts"} <= read


def test_a_traced_call_feeds_its_counter(flat_scene_builder):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sarscene.simulate(flat_scene_builder([(0.0, 0.0, 0.0)], n=4))
    finally:
        tracer.remove()
    totals = tracer.totals()
    assert totals["calls:scene.simulate"] == 1
    assert totals["kernels.echo_pairs"] == 5


def _sarsep_imports(tree):
    """Name -> sarsep module or object, for each top-level sarsep import."""
    names = {}
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.module.split(".")[0] != "sarsep":
            continue
        module = importlib.import_module(node.module)
        for alias in node.names:
            names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _resolve(func, names):
    """The sarsep object a call's function expression names, or None."""
    if isinstance(func, ast.Name):
        return names.get(func.id)
    if isinstance(func, ast.Attribute):
        owner = _resolve(func.value, names)
        return None if owner is None else getattr(owner, func.attr)
    return None


def test_workload_calls_bind_to_the_current_signatures():
    tree = ast.parse(WORKLOADS.read_text())
    names = _sarsep_imports(tree)
    checked, failures = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _resolve(node.func, names)
        if target is None:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue
        name = ast.unparse(node.func)
        try:
            inspect.signature(target).bind(
                *node.args, **{k.arg: k.value for k in node.keywords}
            )
        except TypeError as exc:
            failures.append(f"line {node.lineno}: {name}: {exc}")
        checked.add(name)
    assert not failures, failures
    # Guards the resolution above against matching nothing.
    assert {
        "motion.separate_movers",
        "motion.estimate_cross_speed",
        "annihil.AnnihilationPlan.for_points",
        "ranklab.rank_study",
    } <= checked
