"""Every public top-level function or class of the package is either used by
the package itself or exported from `toricqh`, and every private top-level
function and constant is used by the package: none exists only for tests."""

import ast
from pathlib import Path

import toricqh

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toricqh"


def _names(node):
    """Every name that node refers to by a name, an attribute or an import."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _unreferenced(sources: dict[str, str], exported) -> list[str]:
    """module.name of each public top-level def or class that no source
    refers to by a name, an attribute or an import, and that is not exported."""
    defined, referenced = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
        referenced.update(_names(tree))
    return [f"{module}.{name}" for module, name in defined if name not in referenced | set(exported)]


def _private_definitions(tree):
    """(name, top-level node) of each private top-level function and constant."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def _unreferenced_private(sources: dict[str, str]) -> list[str]:
    """module.name of each private top-level function or constant that no
    source refers to outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    uses = [(node, set(_names(node))) for tree in trees.values() for node in tree.body]
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if not any(name in names for user, names in uses if user is not node)
    ]


def test_the_check_sees_a_name_only_tests_could_call():
    sources = {
        "a": "def used(): pass\ndef exported(): pass\ndef dead(): '''used'''\nclass _Private: pass\n",
        "b": "from a import used\nimport a\na.used()\n",
    }
    assert _unreferenced(sources, ["exported"]) == ["a.dead"]


def test_the_private_check_sees_a_name_only_its_own_definition_uses():
    sources = {
        "a": "_USED, _DEAD = 1, 2\n_TABLE: dict = {}\ndef _helper(): return _USED\n"
             "def _recursive(n): return _recursive(n - 1)\ndef public(): return _helper()\n",
        "b": "import a\na._TABLE.clear()\n",
    }
    assert _unreferenced_private(sources) == ["a._DEAD", "a._recursive"]


def _sources():
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def test_every_public_name_is_used_or_exported():
    assert _unreferenced(_sources(), toricqh._LAZY) == []


def test_every_private_function_and_constant_is_used_by_the_package():
    assert _unreferenced_private(_sources()) == []
