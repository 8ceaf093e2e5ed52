"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    p for p in (Path(__file__).parent.parent / "src" / "framelab").glob("*.py")
    if p.name != "__init__.py"  # its imports are the package's re-exports
)


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the imports of a module that nothing else in it
    reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_scan_sees_an_unused_name():
    tree = ast.parse(
        "import os\nimport numpy as np\nfrom .linalg import a, b\n"
        "np.zeros(a)\n"
    )
    assert unused_imports(tree) == ["b (line 3)", "os (line 1)"]
