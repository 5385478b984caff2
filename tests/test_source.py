"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sarsep"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads or lists in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nprint(os.sep, loads)\n"
    assert unused_imports(source) == ["dumps"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def top_level_names(source: str) -> set[str]:
    """Names a module binds at top level: definitions, assignments, imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def undefined_exports(source: str) -> list[str]:
    """Names listed in ``__all__`` that the module does not bind."""
    exported = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = ast.literal_eval(node.value)
    return sorted(set(exported) - top_level_names(source))


def test_the_check_sees_an_undefined_export():
    source = "import os\n__all__ = ['f', 'os', 'X', 'gone']\nX = 1\ndef f(): pass\n"
    assert undefined_exports(source) == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_defines_every_export(path):
    assert undefined_exports(path.read_text()) == []


def test_package_imports_only_names_its_modules_define():
    missing = []
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            defined = top_level_names((PACKAGE / f"{node.module}.py").read_text())
            missing += [
                f"{node.module}.{a.name}" for a in node.names if a.name not in defined
            ]
    assert missing == []


def meta_reads(source: str) -> list[int]:
    """Lines that read a ``.meta`` attribute other than to copy it whole
    into a dict display (``{**trace.meta, ...}``), the one way provenance
    passes to a derived trace."""
    tree = ast.parse(source)
    copied = {
        id(value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        for key, value in zip(node.keys, node.values)
        if key is None
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "meta"
        and isinstance(node.ctx, ast.Load)
        and id(node) not in copied
    )


def test_the_check_sees_a_meta_read():
    source = (
        "a = {**t.meta, 'part': 'low'}\n"
        "b = t.meta.get('bandwidth')\n"
        "c = 'nu0' in t.meta\n"
        "d = dict(t.meta)\n"
    )
    assert meta_reads(source) == [2, 3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_reads_trace_metadata(path):
    # The band is a field of the trace; meta is provenance that is only
    # passed on and written out.
    assert meta_reads(path.read_text()) == []
