"""Every public function and class of the package serves the tool.

A function or class defined at module level in ``src/seshadri`` whose name
does not start with ``_`` is either exported in ``seshadri.__all__`` or
referenced somewhere in ``src/`` outside its own definition.  A name that
only tests reach belongs in ``tests/``, as the exact references in
``tests/fraction_reference.py`` do.  The walk is syntactic: a reference is
a name, an attribute or an imported name of the same spelling.
"""

import ast
import inspect
from pathlib import Path

import seshadri

import fraction_reference as ref

SRC = Path(__file__).resolve().parent.parent / "src" / "seshadri"


def _names(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unreferenced(trees: dict, exported) -> list:
    """"module.name" for each public module-level function or class of
    ``trees`` (module name: AST) that is not in ``exported`` and that no
    statement of ``trees`` refers to outside its own definition."""
    public, used = [], set()
    for module, tree in trees.items():
        for stmt in tree.body:
            names = set(_names(stmt))
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                public.append((module, stmt.name))
                names.discard(stmt.name)
            used |= names
    return [f"{module}.{name}" for module, name in public
            if name not in exported and name not in used]


def _package_trees() -> dict:
    return {path.relative_to(SRC).with_suffix("").as_posix().replace("/", "."):
            ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.rglob("*.py"))}


def test_sources_found():
    assert {"certify", "oracle", "reorder", "_kernels.pyref"} <= set(_package_trees())


def test_every_public_name_is_exported_or_used():
    assert unreferenced(_package_trees(), seshadri.__all__) == []


def test_the_walk_flags_a_name_left_behind():
    # monomials_up_to left in oracle without points_on_curve, its one caller
    trees = _package_trees()
    trees["oracle"].body += ast.parse(inspect.getsource(ref.monomials_up_to)).body
    assert unreferenced(trees, seshadri.__all__) == ["oracle.monomials_up_to"]
    trees["oracle"].body += ast.parse(inspect.getsource(ref.points_on_curve)).body
    assert unreferenced(trees, seshadri.__all__) == ["oracle.points_on_curve"]


def test_the_walk_counts_references_from_elsewhere_only():
    trees = {"a": ast.parse("def f(n):\n    return f(n - 1)\n\nclass C:\n    pass\n"),
             "b": ast.parse("from .a import C\n")}
    assert unreferenced(trees, []) == ["a.f"]
    assert unreferenced(trees, ["f"]) == []
