"""Every public top-level function or class of the package is either used by
the package itself or exported from `toricqh`, every private top-level
function and constant is used by the package, and every defaulted parameter
is passed by some call in the package: none exists only for tests. No two
modules define the same public top-level name, so a use of one module's
name cannot keep the other's alive."""

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


def _defined_twice(sources: dict[str, str]) -> list[str]:
    """name (modules) of each public top-level function, class or constant
    that more than one module defines."""
    owners: dict[str, list[str]] = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]
            else:
                continue
            for name in dict.fromkeys(names):
                if not name.startswith("_"):
                    owners.setdefault(name, []).append(module)
    return [f"{name} ({', '.join(modules)})" for name, modules in owners.items() if len(modules) > 1]


def _callee(call):
    """The name a call calls: a bare name or an attribute."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _defaulted_parameters(tree):
    """(called name, function name, parameter, position or None) of each
    defaulted parameter of each function in tree. A method's positions leave
    out self, and its __init__ is called by its class's name."""
    methods = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        positional = f.args.posonlyargs + f.args.args
        if id(f) in methods:
            positional = positional[1:]
        called = methods[id(f)] if f.name == "__init__" and id(f) in methods else f.name
        first = len(positional) - len(f.args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield called, f.name, arg.arg, i
        for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if default is not None:
                yield called, f.name, arg.arg, None


def _unpassed_defaults(sources: dict[str, str]) -> list[str]:
    """module.function(parameter) of each defaulted parameter that no call in
    the sources to a function of that name passes, by keyword or by position."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def passed(call, param, position):
        if any(k.arg in (param, None) for k in call.keywords):  # None: **kwargs
            return True
        return any(isinstance(a, ast.Starred) for a in call.args) or (position is not None and len(call.args) > position)

    return [
        f"{module}.{name}({param})"
        for module, tree in trees.items()
        for called, name, param, position in _defaulted_parameters(tree)
        if not any(_callee(call) == called and passed(call, param, position) for call in calls)
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


def test_the_defaults_check_sees_a_parameter_no_call_passes():
    sources = {
        "a": "def f(x, y=1, *, z=2): pass\ndef g(x=0): pass\ndef h(x=0): pass\n"
             "class C:\n    def __init__(self, a, b=None): pass\n    def m(self, c=3, d=4): pass\n",
        "b": "import a\na.f(1, 2)\na.C(1, b=2)\nC(0).m(5)\nargs = [1]\nh(*args)\n",
    }
    assert _unpassed_defaults(sources) == ["a.f(z)", "a.g(x)", "a.m(d)"]


def test_the_duplicate_check_sees_a_name_two_modules_define():
    sources = {
        "a": "def solve(): pass\nLIMIT = 1\n_helper = 2\nclass Fan: pass\n",
        "b": "from a import Fan\ndef solve(): pass\n_helper = 3\nLIMIT: int = 2\n",
        "c": "import a\na.solve()\nFan = a.Fan\n",
    }
    assert _defined_twice(sources) == ["solve (a, b)", "LIMIT (a, b)", "Fan (a, c)"]


def _sources():
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def test_every_public_name_is_used_or_exported():
    assert _unreferenced(_sources(), toricqh._LAZY) == []


def test_every_private_function_and_constant_is_used_by_the_package():
    assert _unreferenced_private(_sources()) == []


def test_every_defaulted_parameter_is_passed_by_the_package():
    assert _unpassed_defaults(_sources()) == []


def test_no_two_modules_define_the_same_public_name():
    assert _defined_twice(_sources()) == []
