"""Shared deterministic generators for the property suites."""

from __future__ import annotations

import random
from fractions import Fraction

from seshadri.certify import Dissection, _peel
from seshadri.geometry import AffineForm, ConvexPolygon, DegenerateInput, cut_polygon
from seshadri.reorder import PiecewiseLinear

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
    region = ConvexPolygon.from_json([[0, 0], [1, 0], [0, 1]])
    cuts, remainder, wanted = [], region, rng.randint(1, 9)
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
    steps = tuple(step for step, _ in _peel(region, cuts))
    return Dissection(name, region, steps, remainder)
