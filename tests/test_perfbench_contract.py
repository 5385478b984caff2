"""The benchmark's tracer still fits the entry points it wraps.

``perfbench/tracing.py`` replaces sarsep module attributes by name and
its counters read the wrapped calls' arguments by parameter name, so a
renamed function or parameter would break the benchmark silently.
These tests read ``perfbench/`` and change nothing in it.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

from sarsep import scene as sarscene

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
