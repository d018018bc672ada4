"""Every name a package module or test file imports is used in that file;
no package module imports `dataclasses`: its import loads `inspect`, and a
frozen record's generated methods are compiled at every start-up; and no
package module reads another's underscore-prefixed names."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = sorted((TESTS.parent / "src" / "toricqh").glob("*.py"))
MODULES = PACKAGE + sorted(TESTS.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom a import b, c as d\nd(os)\n") == ["line 2: b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _imported_modules(source: str) -> set[str]:
    """The top-level name of every module that source imports."""
    tree = ast.parse(source)
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level}
    return {name.split(".")[0] for name in names}


def test_the_import_check_sees_dataclasses():
    assert _imported_modules("import dataclasses.x\nfrom os import path\nfrom . import y\n") == {"dataclasses", "os"}
    assert "dataclasses" in _imported_modules("def f():\n    from dataclasses import replace\n")


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_module_does_not_import_dataclasses(path):
    assert "dataclasses" not in _imported_modules(path.read_text(encoding="utf-8"))


def _private_reads(source: str) -> list[str]:
    """Every underscore-prefixed name of another package module that source
    reads, as `module._name` or by `from .module import _name`. Importing a
    module whose own name starts with an underscore, as `from . import
    _exact`, is not a read."""
    tree = ast.parse(source)
    modules, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    reads.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            reads.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(reads)]


def test_the_structure_check_sees_private_reads():
    source = ("from . import _exact, lattice as lat\nfrom .solver import _points, solve\n"
              "from ._exact import IntVec\n_exact.rank(lat._hull(_exact._eliminate))\n")
    assert _private_reads(source) == ["line 2: solver._points", "line 4: _exact._eliminate", "line 4: lattice._hull"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_module_reads_no_private_name_of_another(path):
    assert _private_reads(path.read_text(encoding="utf-8")) == []
