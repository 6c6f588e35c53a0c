"""Exact rational planar primitives.

Points, affine forms, convex polygons, half-plane cuts, axis projections
and vertical-chord height profiles, all exact.  A polygon is one
denominator and its int vertex pairs, stored closed and canonical
(counterclockwise, starting at the lowest-then-leftmost vertex, in lowest
terms), so structural equality is function equality; cuts and profiles
compute in ints and build ``Fraction``s only for what they return.

Every record here is a ``typing.NamedTuple``, as ``Point`` is: cheap to
define at import, to build and to compare.  A record that checks or
normalises its input is a subclass of one with its own ``__new__``; one
with derived values, such as ``ConvexPolygon.vertices``, keeps them in a
``__dict__`` (:class:`seshadri._input.lazy`) that takes no part in
equality, and refuses assignment.  ``_replace`` skips the checks.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import NamedTuple, Sequence, Tuple

# parse_rational is re-exported
from ._input import (_over_common, _read_only, field, items, lazy, parse_rational,
                     rational, rational_pair)
from .reorder import PiecewiseLinear, _from_ints


class DegenerateInput(ValueError):
    """Input describes a flat (zero-area) or otherwise unusable figure."""


class Point(NamedTuple):
    x: Fraction
    y: Fraction


def point(x, y) -> Point:
    return Point(rational(x), rational(y))


class Axis(Enum):
    X = "x"
    Y = "y"


class AffineForm(NamedTuple("AffineForm", [("r0", Fraction), ("r1", Fraction),
                                             ("r2", Fraction)])):
    """Affine map (x, y) -> r0 + r1*x + r2*y with (r1, r2) != (0, 0)."""

    __slots__ = ()

    def __new__(cls, r0, r1, r2):
        self = tuple.__new__(cls, (rational(r0), rational(r1), rational(r2)))
        if self.r1 == 0 and self.r2 == 0:
            raise DegenerateInput("affine form must have a nonzero linear part")
        return self

    def __call__(self, p: Point) -> Fraction:
        return self.r0 + self.r1 * p.x + self.r2 * p.y

    def scaled_eval(self, n: int, alpha, beta) -> Fraction:
        """Value of the scale-n companion form n*r0 + r1*a + r2*b."""
        return n * self.r0 + self.r1 * rational(alpha) + self.r2 * rational(beta)

    def to_json(self) -> dict:
        return {"r0": str(self.r0), "r1": str(self.r1), "r2": str(self.r2)}

    @classmethod
    def from_json(cls, data: dict) -> "AffineForm":
        data = field("cut", data, dict)
        return cls(data["r0"], data["r1"], data["r2"])


class Interval(NamedTuple("Interval", [("lo", Fraction), ("hi", Fraction)])):
    __slots__ = ()

    def __new__(cls, lo, hi):
        self = tuple.__new__(cls, (rational(lo), rational(hi)))
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")
        return self


def _cross(o, a, b):
    """Cross product of a - o and b - o, for int pairs."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class ConvexPolygon(NamedTuple("ConvexPolygon", [("den", int),
                                                   ("pairs", Tuple[Tuple[int, int], ...])])):
    """Strictly convex closed polygon: vertices (x / den, y / den) for the
    int ``pairs``, counterclockwise from the lowest, then leftmost one, and
    ``den`` > 0 in lowest terms against them, so equal polygons have equal
    fields.  Built by :meth:`from_json` from a vertex chain, the one way
    in from points, or by :func:`cut_polygon`; every function here
    relies on those canonical fields.  ``vertices``, as ``Point``s, is
    built on first use, for output only.
    """

    def __new__(cls, den: int, pairs: Tuple[Tuple[int, int], ...]):
        if len(pairs) < 3:
            raise DegenerateInput("polygon needs at least three vertices")
        return tuple.__new__(cls, (den, pairs))

    __setattr__ = __delattr__ = _read_only

    @lazy
    def vertices(self) -> Tuple[Point, ...]:
        return tuple([Point(Fraction(x, self.den), Fraction(y, self.den))
                      for x, y in self.pairs])

    def to_json(self) -> list:
        return [[str(v.x), str(v.y)] for v in self.vertices]

    @classmethod
    def from_json(cls, data: Sequence) -> "ConvexPolygon":
        """The polygon whose vertices ``data`` lists in order, from any one
        and either way round: one pass checks that it turns one way only and
        winds once, without a hull; else DegenerateInput names the fault."""
        pairs = [[rational_pair(c) for c in items(f"vertex {i}", xy, 2)]
                 for i, xy in enumerate(data, start=1)]
        den = lcm(*[q for xy in pairs for _, q in xy])  # a list: see PiecewiseLinear
        ring = [(p * (den // q), r * (den // s)) for (p, q), (r, s) in pairs]
        if len(ring) < 3:
            raise DegenerateInput("polygon needs at least three vertices")
        # along a chain winding w times, the edges switch between pointing
        # up (or right, if level) and pointing down 2w times
        sign = changes = 0
        for i, b in enumerate(ring):
            a, c = ring[i - 1], ring[(i + 1) % len(ring)]
            turn = _cross(a, b, c)
            if turn == 0:
                fault = ("repeats a neighbour" if b in (a, c)
                         else "is collinear with its neighbours")
                raise DegenerateInput(f"vertex {i + 1} {fault}")
            if sign and (turn > 0) != (sign > 0):
                raise DegenerateInput(f"vertex {i + 1} turns the other way: "
                                      "the polygon is not convex")
            sign = turn
            changes += ((b[1], b[0]) > (a[1], a[0])) != ((c[1], c[0]) > (b[1], b[0]))
        if changes != 2:
            raise DegenerateInput(f"the vertices wind around {changes // 2} times: "
                                  "the polygon is not simple")
        return _polygon(den, ring if sign > 0 else ring[::-1])


def _polygon(den: int, ring: list) -> ConvexPolygon:
    """The polygon of a strictly convex CCW ring of int pairs over den."""
    g = gcd(den, *[c for pair in ring for c in pair])
    if g > 1:
        den, ring = den // g, [(x // g, y // g) for x, y in ring]
    start = ring.index(min(ring, key=itemgetter(1, 0)))
    return ConvexPolygon(den, tuple(ring[start:] + ring[:start]))


def cut_polygon(P: ConvexPolygon, F: AffineForm):
    """Split the strictly convex canonical polygon P along F = 0 into
    (neg, pos) closed parts, in time linear in its vertex count.

    A part whose open side is empty (cut missing P, or touching only a
    vertex or edge) is reported as None; when both parts exist their areas
    add up to the area of P exactly.  F is cleared against P's
    denominator, so a vertex's side is the sign of an int.  Each part is
    built as the CCW chain the walk along P's boundary visits and only
    rotated to its canonical start: both chord ends lie on F = 0 and every
    other point on one edge of P, so no three of its points are collinear
    and none repeats.  Chord ends off P's grid put both parts on a finer one.
    """
    (c0, c1, c2), _ = _over_common(F)  # L*F for the positive lcm L of its denominators
    c0 *= P.den
    vals = [c0 + c1 * x + c2 * y for x, y in P.pairs]
    if min(vals) >= 0:
        return (None, P)
    if max(vals) <= 0:
        return (P, None)
    neg, pos = [], []
    n = len(vals)
    for i, (x, y) in enumerate(P.pairs):
        fa, fb = vals[i], vals[(i + 1) % n]
        if fa <= 0:
            neg.append((x, y, 1))
        if fa >= 0:
            pos.append((x, y, 1))
        if (fa < 0 < fb) or (fb < 0 < fa):
            (bx, by), q = P.pairs[(i + 1) % n], fb - fa
            cx, cy = fb * x - fa * bx, fb * y - fa * by  # where F vanishes, over q
            g = gcd(cx, cy, q) if q > 0 else -gcd(cx, cy, q)
            neg.append((cx // g, cy // g, q // g))
            pos.append(neg[-1])
    k = lcm(*[q for _, _, q in neg])
    return tuple([_polygon(P.den * k, [(x * (k // q), y * (k // q)) for x, y, q in part])
                  for part in (neg, pos)])


def x_projection(P: ConvexPolygon, axis: Axis = Axis.X) -> Interval:
    """Exact projection of P onto the chosen coordinate axis."""
    k = 0 if axis is Axis.X else 1
    coords = [pair[k] for pair in P.pairs]
    return Interval(Fraction(min(coords), P.den), Fraction(max(coords), P.den))


def height_profile(P: ConvexPolygon, axis: Axis = Axis.X) -> PiecewiseLinear:
    """Slice-length profile f(t) = length of the axis-perpendicular chord.

    P must be strictly convex and canonical, as :meth:`ConvexPolygon.from_json`
    and :func:`cut_polygon` build it.  Its two boundary chains from a vertex of
    least coordinate to one of greatest are linear between vertex
    coordinates, so f is piecewise linear with breakpoints exactly at the
    distinct vertex coordinates, concave, nonnegative, and integrates to
    the polygon area.  One walk along both chains finds every breakpoint
    in order, in time linear in the vertex count, in ints over P's
    denominator; the chords go over one lcm.  At an extreme coordinate
    each chain ends at its own end of the axis-parallel edge there, if
    any, so the chord is that edge.
    """
    coords = list(P.pairs) if axis is Axis.X else [(y, x) for x, y in P.pairs]
    n = len(coords)
    low = min(coords)
    lo, hi = low[0], max(coords)[0]
    first = coords.index(low)
    chains = []
    for step in (1, -1):
        i = first
        if coords[(i + step) % n][0] == lo:
            i += step
        side = [coords[i % n]]
        while side[-1][0] != hi:
            i += step
            side.append(coords[i % n])
        chains.append(side)
    a, b = chains
    ts = [lo]
    nums, dens = [abs(a[0][1] - b[0][1])], [1]  # chord i is nums[i] / (dens[i] * P.den)
    ia = ib = 0
    while ia + 1 < len(a):
        t = min(a[ia + 1][0], b[ib + 1][0])
        if a[ia + 1][0] == t:
            ia += 1
        if b[ib + 1][0] == t:
            ib += 1
        ts.append(t)
        (pa, qa), (pb, qb) = _chain_at(a, ia, t), _chain_at(b, ib, t)
        nums.append(abs(pa * qb - pb * qa))
        dens.append(qa * qb)
    den = lcm(*dens)
    return _from_ints(P.den, ts, den * P.den, [c * (den // q) for c, q in zip(nums, dens)])


def _chain_at(side, i: int, t: int) -> Tuple[int, int]:
    """(p, q > 0): p/q is the other coordinate of the chain at coordinate t,
    given side[i][0] <= t < side[i + 1][0] or t == side[i][0]."""
    c0, o0 = side[i]
    if t == c0:
        return o0, 1
    c1, o1 = side[i + 1]
    return o0 * (c1 - c0) + (t - c0) * (o1 - o0), c1 - c0
