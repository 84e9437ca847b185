"""Every top-level import of a library module is used by that module, and
every top-level function or class of the library is referred to somewhere."""
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


def _python_files():
    for top in ("src", "tests", "scripts"):
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
