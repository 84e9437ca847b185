"""Every top-level import of a library module is used by that module, every
top-level function or class of the library is referred to somewhere, every
optional parameter of a top-level library function is set by some call, and
every source file parses with the grammar of the oldest supported Python."""
import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "twofst")
MODULES = sorted(
    name for name in os.listdir(PACKAGE) if name.endswith(".py") and name != "__init__.py"
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_flags_an_unused_import():
    source = "from os import path, sep\nimport sys\n\nprint(sep)\n"
    assert unused_imports(source) == [(1, "path"), (2, "sys")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_top_level_imports(module):
    with open(os.path.join(PACKAGE, module)) as f:
        assert unused_imports(f.read()) == [], module


ROOT = os.path.join(os.path.dirname(__file__), "..")


def _python_files(tops=("src", "tests", "scripts")):
    for top in tops:
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            yield from (os.path.join(folder, name) for name in sorted(files) if name.endswith(".py"))


def unreferenced_definitions(sources: dict, defining: list) -> list:
    """Top-level functions and classes of the ``defining`` sources that no
    source names, outside their own definition, by a name, an attribute or
    an import."""
    defined, referenced = set(), set()
    for path, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                if path in defining:
                    defined.add((path, stmt.name))
            referenced |= names
    return sorted((path, name) for path, name in defined if name not in referenced)


def test_scan_flags_an_unreferenced_definition():
    sources = {
        "lib.py": "def used():\n    pass\n\ndef recursive():\n    recursive()\n\nclass Kept:\n    pass\n",
        "user.py": "from lib import used\nimport lib\n\nlib.Kept()\nused()\n",
    }
    assert unreferenced_definitions(sources, ["lib.py"]) == [("lib.py", "recursive")]


def test_every_library_definition_is_referenced():
    sources = {}
    for path in _python_files():
        with open(path) as f:
            sources[path] = f.read()
    defining = [os.path.join(ROOT, "src", "twofst", name) for name in MODULES + ["__init__.py"]]
    assert unreferenced_definitions(sources, defining) == []


def unset_options(sources: dict, defining: list) -> list:
    """Optional parameters of top-level functions of the ``defining`` sources
    that no call in any source sets, by position or by keyword.  A call
    matches by a plain name or an attribute name; a ``*args`` or
    ``**kwargs`` argument sets every parameter."""
    options = {}  # function name -> [(path, position or None, parameter)]
    for path in defining:
        for stmt in ast.parse(sources[path]).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = stmt.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            found = [(path, i, a.arg) for i, a in enumerate(positional) if i >= first]
            found += [(path, None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            options.setdefault(stmt.name, []).extend(found)
    unset = {(path, name, param) for name, found in options.items() for (path, _, param) in found}
    for source in sources.values():
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            spread = any(isinstance(a, ast.Starred) for a in call.args)
            spread |= any(k.arg is None for k in call.keywords)
            keywords = {k.arg for k in call.keywords}
            for (path, i, param) in options.get(name, ()):
                if spread or param in keywords or (i is not None and i < len(call.args)):
                    unset.discard((path, name, param))
    return sorted(unset)


def test_scan_flags_an_unset_option():
    sources = {
        "lib.py": (
            "def f(a, b=1, *, c=2):\n    pass\n\n"
            "def g(x=0, y=0):\n    pass\n\n"
            "def h(z=0):\n    pass\n"
        ),
        "user.py": "import lib\n\nlib.f(1, 2)\nf(0, c=3)\ng(y=1)\nh(*args)\n",
    }
    assert unset_options(sources, ["lib.py"]) == [("lib.py", "g", "x")]


def test_every_library_option_is_set():
    sources = {}
    for path in _python_files(("src", "tests", "scripts", "perfbench")):
        with open(path) as f:
            sources[path] = f.read()
    defining = [os.path.join(ROOT, "src", "twofst", name) for name in MODULES + ["__init__.py"]]
    assert unset_options(sources, defining) == []


def node_kind_tests(source: str, kinds: set) -> list:
    """Lines of ``source`` that call ``isinstance`` with one of the classes
    named in ``kinds``, alone or in a tuple, by a name or an attribute."""
    lines = []
    for call in ast.walk(ast.parse(source)):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance" and len(call.args) == 2:
            target = call.args[1]
            classes = target.elts if isinstance(target, ast.Tuple) else [target]
            if {getattr(c, "id", None) or getattr(c, "attr", None) for c in classes} & kinds:
                lines.append(call.lineno)
    return lines


def test_scan_flags_a_node_kind_test():
    source = (
        "from twofst import logic\n\n"
        "isinstance(phi, Formula)\n"
        "isinstance(phi, (And, Or))\n"
        "isinstance(phi, logic.Exists)\n"
        "isinstance(n, int)\n"
    )
    assert node_kind_tests(source, {"And", "Or", "Exists"}) == [4, 5]


def test_node_kinds_are_told_apart_only_in_logic():
    # the shape of each node kind is stated once, in twofst.logic; other
    # modules build and pass formulas but do not dispatch on their kind
    from twofst.logic import Formula

    kinds = {kind.__name__ for kind in Formula.__subclasses__()}
    for module in MODULES:
        if module != "logic.py":
            with open(os.path.join(PACKAGE, module)) as f:
                assert node_kind_tests(f.read(), kinds) == [], module


# the floor of requires-python in pyproject.toml
OLDEST_PYTHON = (3, 10)


def test_scan_flags_newer_grammar():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=OLDEST_PYTHON)


@pytest.mark.parametrize("path", sorted(_python_files()), ids=lambda p: os.path.relpath(p, ROOT))
def test_sources_parse_with_the_oldest_grammar(path):
    # ``feature_version`` checks grammar only: a library call or a standard
    # module that the oldest Python lacks still passes
    with open(path) as f:
        ast.parse(f.read(), filename=path, feature_version=OLDEST_PYTHON)
