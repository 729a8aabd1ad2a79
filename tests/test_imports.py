"""Every name a module imports is used there, the package exports what it imports, and no
module branches on a kind string."""

import ast
from pathlib import Path

import pytest

import attkit
from attkit import analysis, kinds

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


#: the strings that name a controller kind or an error system; each is defined once, as a record
KIND_NAMES = set(kinds.KINDS) | set(analysis.ERROR_SYSTEMS)


def _kind_strings(operand):
    """The kind names that a comparison operand spells as string constants, alone or in a
    tuple, list or set."""
    items = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
    return [n.value for n in items if isinstance(n, ast.Constant) and n.value in KIND_NAMES]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_branches_on_a_kind_string(path):
    # a behaviour that differs by kind belongs in the kind's record, not in an if
    found = [
        (node.lineno, name)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        for name in _kind_strings(operand)
    ]
    assert found == []
