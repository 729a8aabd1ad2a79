"""Every name a module imports is used there, and the package exports what it imports."""

import ast
from pathlib import Path

import pytest

import attkit

SRC = Path(attkit.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imports(tree):
    """(bound name, import statement) for each name the module's imports bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    lines = path.read_text().splitlines()
    tree = ast.parse("\n".join(lines))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        name
        for name, node in _imports(tree)
        if name not in used
        and not any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
    ]
    assert unused == []


def test_package_exports_each_name_it_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert sorted(name for name, _ in _imports(tree)) == sorted(attkit.__all__)
