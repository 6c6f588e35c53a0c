"""Exact rational planar primitives.

Points, affine forms, convex polygons, half-plane cuts, axis projections
and vertical-chord height profiles, all over ``fractions.Fraction``.
Polygons are stored closed and canonical (counterclockwise, starting at
the lowest-then-leftmost vertex), so structural equality is function
equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Tuple

from ._input import parse_rational, rational  # parse_rational: re-exported
from .reorder import PiecewiseLinear


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

    def coord(self, p: Point) -> Fraction:
        return p.x if self is Axis.X else p.y

    def other(self, p: Point) -> Fraction:
        return p.y if self is Axis.X else p.x


@dataclass(frozen=True)
class AffineForm:
    """Affine map (x, y) -> r0 + r1*x + r2*y with (r1, r2) != (0, 0)."""

    r0: Fraction
    r1: Fraction
    r2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r0", rational(self.r0))
        object.__setattr__(self, "r1", rational(self.r1))
        object.__setattr__(self, "r2", rational(self.r2))
        if self.r1 == 0 and self.r2 == 0:
            raise DegenerateInput("affine form must have a nonzero linear part")

    def __call__(self, p: Point) -> Fraction:
        return self.r0 + self.r1 * p.x + self.r2 * p.y

    def scaled_eval(self, n: int, alpha, beta) -> Fraction:
        """Value of the scale-n companion form n*r0 + r1*a + r2*b."""
        return n * self.r0 + self.r1 * rational(alpha) + self.r2 * rational(beta)

    def to_json(self) -> dict:
        return {"r0": str(self.r0), "r1": str(self.r1), "r2": str(self.r2)}

    @classmethod
    def from_json(cls, data: dict) -> "AffineForm":
        return cls(data["r0"], data["r1"], data["r2"])


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rational(self.lo))
        object.__setattr__(self, "hi", rational(self.hi))
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex closed polygon, counterclockwise, canonical start.

    Built by :func:`make_polygon` from any points, or by
    :func:`cut_polygon` from a polygon; direct construction expects an
    already canonical vertex chain.  Every function here that takes a
    polygon relies on it being strictly convex and canonical.
    """

    vertices: Tuple[Point, ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise DegenerateInput("polygon needs at least three vertices")

    def edges(self):
        n = len(self.vertices)
        for i in range(n):
            yield self.vertices[i], self.vertices[(i + 1) % n]

    @property
    def area(self) -> Fraction:
        """Exact shoelace area; positive by the CCW convention."""
        total = Fraction(0)
        for a, b in self.edges():
            total += a.x * b.y - b.x * a.y
        return total / 2

    def contains(self, p: Point) -> bool:
        """Closed containment test via edge cross products."""
        return all(_cross(a, b, p) >= 0 for a, b in self.edges())

    def in_first_quadrant(self) -> bool:
        return all(v.x >= 0 and v.y >= 0 for v in self.vertices)

    def to_json(self) -> list:
        return [[str(v.x), str(v.y)] for v in self.vertices]

    @classmethod
    def from_json(cls, data: Sequence) -> "ConvexPolygon":
        return make_polygon([point(x, y) for x, y in data])


def make_polygon(points: Iterable) -> ConvexPolygon:
    """Canonical CCW convex hull of the inputs; rejects zero-area hulls."""
    pts = sorted({Point(rational(p[0]), rational(p[1])) for p in points})
    if len(pts) < 3:
        raise DegenerateInput("need at least three distinct points")

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateInput("points are collinear (zero-area hull)")
    return _canonical(hull)


def _canonical(chain: Sequence[Point]) -> ConvexPolygon:
    """The polygon of a strictly convex CCW vertex chain, rotated to start
    at its lowest, then leftmost vertex."""
    start = min(range(len(chain)), key=lambda i: (chain[i].y, chain[i].x))
    return ConvexPolygon(tuple(chain[start:]) + tuple(chain[:start]))


def cut_polygon(P: ConvexPolygon, F: AffineForm):
    """Split the strictly convex canonical polygon P along F = 0 into
    (neg, pos) closed parts, in time linear in its vertex count.

    A part whose open side is empty (cut missing P, or touching only a
    vertex or edge) is reported as None; when both parts exist their areas
    add up to the area of P exactly.  Each part is built as the CCW chain
    the walk along P's boundary visits and only rotated to its canonical
    start: both chord ends lie on F = 0 and every other point on one edge
    of P, so no three of its points are collinear and none repeats.
    """
    vals = [F(v) for v in P.vertices]
    if all(v >= 0 for v in vals):
        return (None, P)
    if all(v <= 0 for v in vals):
        return (P, None)
    neg, pos = [], []
    n = len(P.vertices)
    for i in range(n):
        a, b = P.vertices[i], P.vertices[(i + 1) % n]
        fa, fb = vals[i], vals[(i + 1) % n]
        if fa <= 0:
            neg.append(a)
        if fa >= 0:
            pos.append(a)
        if (fa < 0 < fb) or (fb < 0 < fa):
            t = fa / (fa - fb)
            crossing = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
            neg.append(crossing)
            pos.append(crossing)
    return (_canonical(neg), _canonical(pos))


def x_projection(P: ConvexPolygon, axis: Axis = Axis.X) -> Interval:
    """Exact projection of P onto the chosen coordinate axis."""
    coords = [axis.coord(v) for v in P.vertices]
    return Interval(min(coords), max(coords))


def height_profile(P: ConvexPolygon, axis: Axis = Axis.X) -> PiecewiseLinear:
    """Slice-length profile f(t) = length of the axis-perpendicular chord.

    P must be strictly convex and canonical, as :func:`make_polygon` and
    :func:`cut_polygon` build it.  Its two boundary chains from a vertex of
    least coordinate to one of greatest are linear between vertex
    coordinates, so f is piecewise linear with breakpoints exactly at the
    distinct vertex coordinates, concave, nonnegative, and integrates to
    the polygon area.  One walk along both chains finds every breakpoint
    in order, in time linear in the vertex count.  At an extreme
    coordinate each chain ends at its own end of the axis-parallel edge
    there, if any, so the chord is that edge.
    """
    coords = [(axis.coord(v), axis.other(v)) for v in P.vertices]
    n = len(coords)
    low = min(coords)
    lo, hi = low[0], max(coords)[0]
    first = coords.index(low)
    chains = []
    for step in (1, -1):
        i = first
        if coords[(i + step) % n][0] == lo:
            i += step
        chain = [coords[i % n]]
        while chain[-1][0] != hi:
            i += step
            chain.append(coords[i % n])
        chains.append(chain)
    a, b = chains
    ts = [lo]
    vals = [abs(a[0][1] - b[0][1])]
    ia = ib = 0
    while ia + 1 < len(a):
        t = min(a[ia + 1][0], b[ib + 1][0])
        if a[ia + 1][0] == t:
            ia += 1
        if b[ib + 1][0] == t:
            ib += 1
        ts.append(t)
        vals.append(abs(_chain_at(a, ia, t) - _chain_at(b, ib, t)))
    return PiecewiseLinear(tuple(ts), tuple(vals))


def _chain_at(chain, i: int, t: Fraction) -> Fraction:
    """Other coordinate of the chain at coordinate t, given chain[i][0] <= t
    < chain[i + 1][0] or t == chain[i][0]."""
    c0, o0 = chain[i]
    if t == c0:
        return o0
    c1, o1 = chain[i + 1]
    return o0 + (t - c0) * (o1 - o0) / (c1 - c0)
