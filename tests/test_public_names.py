"""Every public top-level function or class of the package is either used by
the package itself or exported from `toricqh`: none exists only for tests."""

import ast
from pathlib import Path

import toricqh

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toricqh"


def _unreferenced(sources: dict[str, str], exported) -> list[str]:
    """module.name of each public top-level def or class that no source
    refers to by a name, an attribute or an import, and that is not exported."""
    defined, referenced = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return [f"{module}.{name}" for module, name in defined if name not in referenced | set(exported)]


def test_the_check_sees_a_name_only_tests_could_call():
    sources = {
        "a": "def used(): pass\ndef exported(): pass\ndef dead(): '''used'''\nclass _Private: pass\n",
        "b": "from a import used\nimport a\na.used()\n",
    }
    assert _unreferenced(sources, ["exported"]) == ["a.dead"]


def test_every_public_name_is_used_or_exported():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced(sources, toricqh._LAZY) == []
