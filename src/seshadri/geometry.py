"""Exact rational planar primitives.

Points, affine forms, convex polygons, half-plane cuts, axis projections
and vertical-chord height profiles, all over ``fractions.Fraction``.
Polygons are stored closed and canonical (counterclockwise, starting at
the lowest-then-leftmost vertex), so structural equality is function
equality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Tuple

from .reorder import PiecewiseLinear

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[1-9][0-9]*)?$")


class DegenerateInput(ValueError):
    """Input describes a flat (zero-area) or otherwise unusable figure."""


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' with the sign on the numerator; no decimals."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational 'p/q' literal: {text!r}")
    return Fraction(text)


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def _rat(x) -> Fraction:
    if isinstance(x, (bool, float)):
        raise TypeError(f"{type(x).__name__} value {x!r} rejected; "
                        "pass Fraction, int or 'p/q'")
    if isinstance(x, str):
        return parse_rational(x)
    return Fraction(x)


class Point(NamedTuple):
    x: Fraction
    y: Fraction


def point(x, y) -> Point:
    return Point(_rat(x), _rat(y))


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
        object.__setattr__(self, "r0", _rat(self.r0))
        object.__setattr__(self, "r1", _rat(self.r1))
        object.__setattr__(self, "r2", _rat(self.r2))
        if self.r1 == 0 and self.r2 == 0:
            raise DegenerateInput("affine form must have a nonzero linear part")

    def __call__(self, p: Point) -> Fraction:
        return self.r0 + self.r1 * p.x + self.r2 * p.y

    def scaled_eval(self, n: int, alpha, beta) -> Fraction:
        """Value of the scale-n companion form n*r0 + r1*a + r2*b."""
        return n * self.r0 + self.r1 * Fraction(alpha) + self.r2 * Fraction(beta)

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
        object.__setattr__(self, "lo", _rat(self.lo))
        object.__setattr__(self, "hi", _rat(self.hi))
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

    Built through :func:`make_polygon`; direct construction expects an
    already canonical vertex chain.
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
    pts = sorted({Point(_rat(p[0]), _rat(p[1])) for p in points})
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
    start = min(range(len(hull)), key=lambda i: (hull[i].y, hull[i].x))
    return ConvexPolygon(tuple(hull[start:] + hull[:start]))


def cut_polygon(P: ConvexPolygon, F: AffineForm):
    """Split P along F = 0 into (neg, pos) closed parts.

    A part whose open side is empty (cut missing P, or touching only a
    vertex or edge) is reported as None; when both parts exist their areas
    add up to the area of P exactly.
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
    return (make_polygon(neg), make_polygon(pos))


def x_projection(P: ConvexPolygon, axis: Axis = Axis.X) -> Interval:
    """Exact projection of P onto the chosen coordinate axis."""
    coords = [axis.coord(v) for v in P.vertices]
    return Interval(min(coords), max(coords))


def _chord_span(P: ConvexPolygon, axis: Axis, t: Fraction) -> Fraction:
    """Length of the slice of P over coordinate value t on the given axis."""
    hits = []
    for a, b in P.edges():
        ca, cb = axis.coord(a), axis.coord(b)
        if ca == cb:
            if ca == t:
                hits.append(axis.other(a))
                hits.append(axis.other(b))
            continue
        if (ca - t) * (cb - t) <= 0:
            s = (t - ca) / (cb - ca)
            hits.append(axis.other(a) + s * (axis.other(b) - axis.other(a)))
    if not hits:
        raise ValueError(f"coordinate {t} outside the polygon's projection")
    return max(hits) - min(hits)


def height_profile(P: ConvexPolygon, axis: Axis = Axis.X) -> PiecewiseLinear:
    """Slice-length profile f(t) = length of the axis-perpendicular chord.

    For a convex polygon the upper and lower boundary chains are linear
    between vertex abscissae, so f is piecewise linear with breakpoints
    exactly at the distinct vertex coordinates, concave, nonnegative, and
    integrates to the polygon area.
    """
    ts = sorted({axis.coord(v) for v in P.vertices})
    return PiecewiseLinear(tuple(ts), tuple(_chord_span(P, axis, t) for t in ts))


def max_chord(P: ConvexPolygon, axis: Axis = Axis.X) -> Fraction:
    """Maximum slice length; attained at a breakpoint of the profile."""
    return height_profile(P, axis).max_value()
