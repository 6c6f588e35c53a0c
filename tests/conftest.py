"""Shared deterministic generators for the property suites."""

from __future__ import annotations

import random
from fractions import Fraction

from seshadri._input import lazy
from seshadri.certify import finite_certificate
from seshadri.dissection import (SIMPLEX, Dissection, _peel, _require_valid,
                                 builtin_dissection_eckl10, validate_dissection,
                                 verify_asymptotic)
from seshadri.geometry import AffineForm, Axis, DegenerateInput, cut_polygon, x_projection
from seshadri.lattice import (Direction, MultiplicitySpec, column_profile, scaled_points,
                              select_witness_subset)
from seshadri.oracle import GenericPointSet
from seshadri.reorder import PiecewiseLinear, height_profile
from seshadri.render import RenderSpec

from fraction_reference import polygon


def random_pl(rng: random.Random, max_breaks: int = 12, domain=None,
              lo: int = -8, hi: int = 16) -> PiecewiseLinear:
    """Random piecewise-linear function with small rational data."""
    k = rng.randint(2, max_breaks)
    if domain is None:
        xs = sorted(rng.sample(range(0, 64), k))
        den = rng.randint(1, 4)
        bps = [Fraction(x, den) for x in xs]
    else:
        a, b = Fraction(domain[0]), Fraction(domain[1])
        interior = sorted(rng.sample(range(1, 64), k - 2)) if k > 2 else []
        bps = [a] + [a + (b - a) * Fraction(x, 64) for x in interior] + [b]
    vals = [Fraction(rng.randint(lo, hi), rng.randint(1, 5)) for _ in range(len(bps))]
    return PiecewiseLinear(tuple(bps), tuple(vals))


def random_concave_profile(rng: random.Random, max_breaks: int = 8) -> PiecewiseLinear:
    """Random nonnegative concave function with max value >= domain width."""
    while True:
        k = rng.randint(2, max_breaks)
        xs = sorted(rng.sample(range(0, 32), k))
        den = rng.randint(1, 3)
        bps = [Fraction(x, den) for x in xs]
        slopes = sorted((Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         for _ in range(k - 1)), reverse=True)
        vals = [Fraction(0)]
        for s, (a, b) in zip(slopes, zip(bps, bps[1:])):
            vals.append(vals[-1] + s * (b - a))
        floor = min(vals)
        vals = [v - floor for v in vals]
        top = max(vals)
        if top == 0:
            continue
        width = bps[-1] - bps[0]
        if top < width:
            vals = [v * width / top for v in vals]
        return PiecewiseLinear(tuple(bps), tuple(vals))


def random_polygon(rng: random.Random, span: int = 8, tries: int = 100):
    """Random convex polygon with small rational vertices in the first quadrant."""
    for _ in range(tries):
        k = rng.randint(3, 8)
        pts = [(Fraction(rng.randint(0, span), rng.randint(1, 3)),
                Fraction(rng.randint(0, span), rng.randint(1, 3)))
               for _ in range(k)]
        try:
            return polygon(pts)
        except DegenerateInput:
            continue
    raise AssertionError("failed to sample a convex polygon")


def random_dissection(rng: random.Random, name: str = "random") -> Dissection:
    """Seeded dissection of the standard simplex into 2 to 10 pieces.

    Each cut is c + a*x + b*y with a, b in -3..3, not both 0, and c = p/q
    with |p| <= 12 and 1 <= q <= 13.  A cut is kept when it leaves area on
    both sides of the remainder; after 200 draws the dissection stops with
    the cuts it has.  The pieces are peeled by the package's one cutter.
    """
    cuts, remainder, wanted = [], SIMPLEX, rng.randint(1, 9)
    for _ in range(200):
        if len(cuts) == wanted:
            break
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if not (a or b):
            continue
        cut = AffineForm(Fraction(rng.randint(-12, 12), rng.randint(1, 13)), a, b)
        peeled, rest = cut_polygon(remainder, cut)
        if peeled is not None and rest is not None:
            cuts.append(cut)
            remainder = rest
    steps = tuple(step for step, _ in _peel(cuts))
    return Dissection(name, steps, remainder)


def derived(record) -> tuple:
    """The derived values a record keeps in its ``__dict__``: each ``lazy``
    value of its class, and a ``Dissection``'s analysis."""
    names = tuple(name for cls in type(record).__mro__ for name, value in vars(cls).items()
                  if isinstance(value, lazy))
    return names + ("_analysis",) * isinstance(record, Dissection)


def asymptotic_records() -> dict:
    """One new instance of each record of the asymptotic half, and of
    ``RenderSpec``, by class name, taken from a new eckl10; the
    dissection is validated, and no derived value of the others is read."""
    dis = builtin_dissection_eckl10()
    report = verify_asymptotic(dis, Fraction(3, 13))
    records = [dis.steps[0].cut, x_projection(dis.final), dis.steps[2].peeled,
               height_profile(dis.steps[4].peeled, Axis.Y), dis.steps[1], dis,
               validate_dissection(dis), _require_valid(dis).pieces[0][1],
               report.per_polygon[3], report, RenderSpec(300, False)]
    return {type(r).__name__: r for r in records}


def finite_records() -> dict:
    """One new instance of each record of the finite half, by class name:
    a new eckl10 certificate at n = 13 in modular mode and parts of it, and
    the points of 5 times the simplex with a profile and a witness of
    them; no derived value is read."""
    cert = finite_certificate(builtin_dissection_eckl10(), 13, "modular")
    D = scaled_points(5)
    records = [D, MultiplicitySpec((3, 1, 1)), column_profile(D, Direction.HORIZONTAL),
               select_witness_subset(D, Direction.HORIZONTAL, 4),
               GenericPointSet.explicit([("1/2", 3), (2, "5/3")]), cert.per_polygon[2].oracle,
               cert.per_polygon[2], cert]
    return {type(r).__name__: r for r in records}
