"""Every module of the package uses each name it imports, and the
arithmetic modules hold no check.

A name that a module imports and never reads is left behind by a move of
code between modules; this guard finds it with the standard library's ast.
``from __future__`` imports and the re-exports of ``__init__.py`` are
exempt.  The checks live in suites.py: no function of the four arithmetic
modules lists a carrier (calls ``.elements()``) or is named ``*_check``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "skewseries"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ARITHMETIC = ("rings.py", "skewpoly.py", "series.py", "k0.py")


def unused_imports(source: str) -> list:
    """The names bound by the imports of ``source`` that no other part of
    it reads, in the order they are imported."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\nimport re\n"
              "from itertools import chain, zip_longest as zl\n"
              "re.compile(chain)\n")
    assert unused_imports(source) == ["os", "osp", "zl"]


def checking_functions(source: str) -> list:
    """The functions of ``source``, nested ones too, that call a method
    named elements or are named <what>_check, in the order ast.walk meets
    them.  An operand check named plain _check is no suite."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.lstrip("_").endswith("_check") or any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "elements" for call in ast.walk(node)):
            found.append(node.name)
    return found


@pytest.mark.parametrize("name", ARITHMETIC)
def test_no_arithmetic_function_lists_a_carrier_or_checks(name):
    assert checking_functions((PACKAGE / name).read_text()) == []


def test_the_check_guard_sees_a_walk_and_a_check():
    source = ("class Ring:\n"
              "    def elements(self):\n        return range(4)\n"
              "def walk(ctx):\n"
              "    def inner():\n        return sorted(ctx.elements())\n"
              "    return inner()\n"
              "def ring_check(ctx):\n    return ctx\n"
              "def _check(other):\n    return other\n")
    assert checking_functions(source) == ["walk", "ring_check", "inner"]


def test_the_package_is_found():
    # an empty MODULES would leave the guard above with nothing to check
    assert PACKAGE / "series.py" in MODULES
