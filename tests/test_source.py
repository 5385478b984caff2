"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

MODULES = sorted(
    path
    for path in (Path(__file__).resolve().parents[1] / "src" / "sarsep").glob("*.py")
    if path.name != "__init__.py"
)


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
