"""Every public function, class, method and property of the package
serves the tool.

A function or class defined at module level in ``src/seshadri`` whose name
does not start with ``_`` is either exported in ``seshadri.__all__`` or
referenced somewhere in ``src/`` outside its own definition.  A public
method or property of a class defined there is referenced somewhere in
``src/`` outside its own body; dunders are exempt.  A name that only tests
reach belongs in ``tests/``, as the exact references in
``tests/fraction_reference.py`` do.  The walk is syntactic: a reference is
a name, an attribute or an imported name of the same spelling, so a method
shares its uses with every attribute of its name.
"""

import ast
import inspect
from pathlib import Path

import seshadri

import fraction_reference as ref

SRC = Path(__file__).resolve().parent.parent / "src" / "seshadri"
# the scale-n sign test that tests keep as their reference, kept in the
# package for a certificate checker that will classify witness points by it
ALLOWED = ["geometry.AffineForm.scaled_eval"]


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
    statement of ``trees`` refers to outside its own definition, then
    "module.Class.name" for each public method or property that nothing
    outside its own body refers to."""
    public, methods, units = [], [], []  # units: (top statement, member, names)
    for module, tree in trees.items():
        for stmt in tree.body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                public.append((module, stmt))
            if not isinstance(stmt, ast.ClassDef):
                units.append((stmt, None, set(_names(stmt))))
                continue
            header = stmt.bases + stmt.keywords + stmt.decorator_list
            units.append((stmt, None, {n for node in header for n in _names(node)}))
            for member in stmt.body:
                units.append((stmt, member, set(_names(member))))
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("_")):
                    methods.append((module, stmt.name, member))
    found = [f"{module}.{stmt.name}" for module, stmt in public
             if stmt.name not in exported
             and not any(stmt.name in names for top, _, names in units if top is not stmt)]
    return found + [f"{module}.{cls}.{member.name}" for module, cls, member in methods
                    if not any(member.name in names for _, m, names in units if m is not member)]


def _package_trees() -> dict:
    return {path.relative_to(SRC).with_suffix("").as_posix().replace("/", "."):
            ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.rglob("*.py"))}


def _class(tree: ast.Module, name: str) -> ast.ClassDef:
    return next(s for s in tree.body if isinstance(s, ast.ClassDef) and s.name == name)


def test_sources_found():
    assert {"certify", "oracle", "reorder", "_kernels.pyref"} <= set(_package_trees())


def _flagged(trees: dict) -> list:
    return [name for name in unreferenced(trees, seshadri.__all__) if name not in ALLOWED]


def test_every_public_name_is_exported_or_used():
    trees = _package_trees()
    assert _flagged(trees) == []
    assert set(ALLOWED) <= set(unreferenced(trees, seshadri.__all__))


def test_the_walk_flags_a_name_left_behind():
    # monomials_up_to left in oracle without points_on_curve, its one caller
    trees = _package_trees()
    trees["oracle"].body += ast.parse(inspect.getsource(ref.monomials_up_to)).body
    assert _flagged(trees) == ["oracle.monomials_up_to"]
    trees["oracle"].body += ast.parse(inspect.getsource(ref.points_on_curve)).body
    assert _flagged(trees) == ["oracle.points_on_curve"]


def test_the_walk_flags_a_method_left_behind():
    # PiecewiseLinear.domain left in the package without the evaluation
    # that read it
    trees = _package_trees()
    _class(trees["reorder"], "PiecewiseLinear").body += ast.parse(
        "@property\ndef domain(self):\n"
        "    return (self.breakpoints[0], self.breakpoints[-1])\n").body
    assert _flagged(trees) == ["reorder.PiecewiseLinear.domain"]


def test_the_walk_counts_references_from_elsewhere_only():
    trees = {"a": ast.parse("def f(n):\n    return f(n - 1)\n\nclass C:\n    pass\n"),
             "b": ast.parse("from .a import C\n")}
    assert unreferenced(trees, []) == ["a.f"]
    assert unreferenced(trees, ["f"]) == []
    methods = ast.parse("class K:\n"
                        "    def __len__(self):\n        return self.size\n"
                        "    def g(self):\n        return self.g()\n"
                        "    @property\n    def size(self):\n        return 0\n")
    assert unreferenced({"a": methods}, ["K"]) == ["a.K.g"]
