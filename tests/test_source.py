"""Checks on the source text of the package itself."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "entctl"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements that no other node names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "annotations" and isinstance(node, ast.ImportFrom):
                    continue  # from __future__ import annotations
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "import os.path\nfrom math import gcd, lcm as l\nimport json\nx = l(2, json.loads('3'))\n"
    assert unused_imports(source) == ["gcd (line 2)", "os (line 1)"]


ROOT = SRC.parent.parent
READERS = sorted(
    p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")
)


def names_used(source: str) -> set[str]:
    """The names a module reads: bare names, attributes and imported names."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add((node.asname or node.name).split(".")[-1])
    return used


def unused_definitions(source: str, used: set[str]) -> list[str]:
    """The functions, methods and classes of ``source``, dunders aside,
    whose names are not in ``used``."""
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]


def test_no_unused_definitions():
    used = set().union(*(names_used(p.read_text()) for p in READERS))
    unused = {p.name: unused_definitions(p.read_text(), used) for p in MODULES}
    assert {name: found for name, found in unused.items() if found} == {}


def test_unused_definition_is_found():
    source = (
        "class A:\n"
        "    def __eq__(self, other):\n"
        "        return helper(other)\n"
        "    def lonely(self):\n"
        "        pass\n"
        "def helper(x):\n"
        "    return x.attr()\n"
        "def attr():\n"
        "    pass\n"
        "def dead():\n"
        "    pass\n"
    )
    used = names_used(source) | names_used("from m import A\n")
    assert unused_definitions(source, used) == ["dead (line 10)", "lonely (line 4)"]
