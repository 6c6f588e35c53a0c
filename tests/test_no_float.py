"""No floating point in the package source.

Every figure the package reports is exact, so its source holds no float
literal, no call to ``float`` and no ``math`` function beyond the integer
ones.  The walk is syntactic: it cannot see a true division of two ints
(``1 / 2`` is a float in Python), nor a float that arrives from a caller;
the strict readers refuse those at the boundary.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "seshadri"
INTEGER_MATH = {"ceil", "floor", "comb", "perm", "lcm", "gcd", "isqrt"}


def float_uses(tree: ast.AST):
    """(line, what) for each float literal, call to float and math import
    outside INTEGER_MATH in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "call to float"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "math" or alias.name.startswith("math."):
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    yield node.lineno, f"from math import {alias.name}"


SOURCES = sorted(SRC.rglob("*.py"))


def test_sources_found():
    assert SRC / "certify.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_float(path):
    found = [f"{path.name}:{line}: {what}"
             for line, what in float_uses(ast.parse(path.read_text(), str(path)))]
    assert found == []


@pytest.mark.parametrize("code", ["x = 0.5", "y = float(3)", "from math import sqrt",
                                  "import math", "z = 1e3"])
def test_the_walk_sees(code):
    assert list(float_uses(ast.parse(code)))


def test_the_walk_allows_integer_math():
    assert not list(float_uses(ast.parse("from math import ceil, comb, lcm\nx = 7 // 2")))
