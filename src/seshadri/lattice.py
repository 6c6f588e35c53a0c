"""Finite monomial-exponent sets and the parallel-lines witness.

Covers extraction of the integer points of a scaled polygon, splitting a
set by an affine form at a given scale, per-line count profiles, and the
deterministic selection of a subset whose columns carry exactly
1, 2, ..., m points on m parallel lines.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from math import ceil, comb, floor, lcm
from operator import itemgetter
from typing import Optional, Sequence, Tuple

from ._input import field
from .geometry import AffineForm, ConvexPolygon


class EmptySet(ValueError):
    """Operation needs a nonempty lattice set."""


class WitnessTooLarge(ValueError):
    """Requested witness size exceeds what the profile can host."""


class Direction(Enum):
    VERTICAL = "vertical"      # lines of constant first coordinate
    HORIZONTAL = "horizontal"  # lines of constant second coordinate

    @property
    def coordinate(self) -> int:
        """Index into a point (alpha, beta) of its line's coordinate."""
        return 0 if self is Direction.VERTICAL else 1


@dataclass(frozen=True)
class LatticeSet:
    """Finite subset of N^2, kept sorted and duplicate-free.

    The public constructor takes untrusted points: each must be a pair of
    nonnegative ints (not bools, not floats), and the set is sorted and
    de-duplicated.  Code whose output already has that form builds sets
    through :meth:`_trusted` instead.
    """

    points: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        pts = set()
        for pt in self.points:
            a, b = pt
            if not (type(a) is int and type(b) is int):
                raise ValueError(f"lattice point {list(pt)!r}: exponents must be integers")
            if a < 0 or b < 0:
                raise ValueError(f"lattice point {list(pt)!r}: exponents must be nonnegative")
            pts.add((a, b))
        object.__setattr__(self, "points", tuple(sorted(pts)))

    @classmethod
    def _trusted(cls, points: Tuple[Tuple[int, int], ...]) -> "LatticeSet":
        """Wrap a tuple of int pairs that is already sorted, duplicate-free
        and nonnegative, without checking it."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "points", points)
        return obj

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, pt):
        pt = tuple(pt)
        i = bisect_left(self.points, pt)
        return i < len(self.points) and self.points[i] == pt

    def issubset(self, other: "LatticeSet") -> bool:
        # Both point tuples are sorted: one merge pass decides inclusion.
        theirs = iter(other.points)
        for p in self.points:
            for q in theirs:
                if q == p:
                    break
                if q > p:
                    return False
            else:
                return False
        return True

    def to_json(self) -> list:
        return [list(p) for p in self.points]

    @classmethod
    def from_json(cls, data: Sequence) -> "LatticeSet":
        return cls(tuple(data))


@dataclass(frozen=True)
class MultiplicitySpec:
    """Prescribed multiplicities m1, ..., mr, each at least 1."""

    multiplicities: Tuple[int, ...]

    def __post_init__(self):
        ms = tuple(self.multiplicities)
        for m in ms:
            if field("multiplicity", m, int) < 1:
                raise ValueError(f"multiplicity {m!r} is not positive")
        object.__setattr__(self, "multiplicities", ms)

    def __len__(self):
        return len(self.multiplicities)

    def __iter__(self):
        return iter(self.multiplicities)

    def conditions(self) -> int:
        """Total number of vanishing conditions imposed."""
        return sum(comb(m + 1, 2) for m in self.multiplicities)


def _coerce_spec(spec) -> MultiplicitySpec:
    if isinstance(spec, MultiplicitySpec):
        return spec
    return MultiplicitySpec(tuple(spec))


@dataclass(frozen=True)
class ColumnProfile:
    """Counts of set points per parallel line in the chosen direction."""

    direction: Direction
    counts: Tuple[Tuple[int, int], ...]  # (line index, count), sorted by index

    def count_list(self) -> list:
        return [c for _, c in self.counts]


def _cleared_form(r0, r1, r2, scale: int) -> Tuple[int, int, int]:
    """Integers (c0, c1, c2) with c0 + c1*alpha + c2*beta equal to L times
    scale*r0 + r1*alpha + r2*beta, for the positive lcm L of the
    denominators of the rationals r0, r1, r2; the sign is unchanged."""
    L = lcm(r0.denominator, r1.denominator, r2.denominator)
    return (scale * r0.numerator * (L // r0.denominator),
            r1.numerator * (L // r1.denominator),
            r2.numerator * (L // r2.denominator))


def scaled_points(P: ConvexPolygon, n: int) -> LatticeSet:
    """Integer points of the closed scaled polygon n*P.

    Membership is decided column by column: each edge (a, b) of the CCW
    polygon contributes the half-plane (b - a) x (q - a) >= 0, cleared of
    denominators once, so every integer first coordinate alpha gets an
    integer bound on the second coordinate by floor division.
    """
    if n < 1:
        raise ValueError("scale must be a positive integer")
    if not P.in_first_quadrant():
        raise ValueError("polygon must lie in the first quadrant")
    lower, upper, walls = [], [], []
    for a, b in P.edges():
        # -dy*x + dx*y + (dy*a.x - dx*a.y) >= 0 inside, with (dx, dy) = b - a
        dx, dy = b.x - a.x, b.y - a.y
        c0, c1, c2 = _cleared_form(dy * a.x - dx * a.y, -dy, dx, n)
        # c2 > 0 bounds beta from below, c2 < 0 from above, c2 = 0 is a wall
        (lower if c2 > 0 else upper if c2 < 0 else walls).append((c0, c1, c2))
    xs = [v.x for v in P.vertices]
    pts = []
    for alpha in range(ceil(n * min(xs)), floor(n * max(xs)) + 1):
        if any(c0 + c1 * alpha < 0 for c0, c1, _ in walls):
            continue
        lo = max(-((c0 + c1 * alpha) // c2) for c0, c1, c2 in lower)
        hi = min((c0 + c1 * alpha) // -c2 for c0, c1, c2 in upper)
        pts.extend(zip(repeat(alpha), range(max(0, lo), hi + 1)))
    # columns in increasing alpha, each in increasing beta >= 0
    return LatticeSet._trusted(tuple(pts))


def split_by_affine(D: LatticeSet, F: AffineForm, scale: int):
    """Split D by the scale companion of F: strictly negative side first.

    Points on the cut line go to the second (nonnegative) part, so the two
    parts always partition D.  The form is multiplied once by the positive
    lcm L of its denominators, so a point's side is the sign of the integer
    c0 + c1*alpha + c2*beta, which is L times the scaled value.  Along one
    column that sign changes at most once, so each column of the sorted D
    is cut by a single bisection at an integer threshold on beta.
    """
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    c0, c1, c2 = _cleared_form(F.r0, F.r1, F.r2, scale)
    pts = D.points
    d1, d2 = [], []
    i = 0
    while i < len(pts):
        alpha = pts[i][0]
        j = bisect_left(pts, (alpha + 1,), i)  # the column of alpha is pts[i:j]
        v = c0 + c1 * alpha
        if c2 == 0:
            (d1 if v < 0 else d2).extend(pts[i:j])
        elif c2 > 0:
            # v + c2*beta < 0 iff beta < ceil(-v / c2)
            k = bisect_left(pts, (alpha, -(v // c2)), i, j)
            d1.extend(pts[i:k])
            d2.extend(pts[k:j])
        else:
            # v + c2*beta < 0 iff beta > floor(v / -c2)
            k = bisect_left(pts, (alpha, v // -c2 + 1), i, j)
            d2.extend(pts[i:k])
            d1.extend(pts[k:j])
        i = j
    # both parts are subsequences of the sorted D
    return (LatticeSet._trusted(tuple(d1)), LatticeSet._trusted(tuple(d2)))


def column_profile(D: LatticeSet, direction: Direction) -> ColumnProfile:
    """Exact per-line counts of D along the given direction."""
    if len(D) == 0:
        raise EmptySet("cannot profile an empty set")
    counter = Counter(map(itemgetter(direction.coordinate), D.points))
    return ColumnProfile(direction, tuple(sorted(counter.items())))


def max_parallel_witness(profile: ColumnProfile) -> int:
    """Largest m hostable as lines carrying exactly 1, ..., m points.

    With counts sorted descending h0 >= h1 >= ..., size m is feasible iff
    hj >= m - j for every j < m (assign the largest demand to the fullest
    line), i.e. iff min over j < m of hj + j is at least m.  That minimum
    falls as m grows, so the feasible sizes run from 1 up to the answer,
    and one pass finds the first infeasible size.
    """
    counts = sorted(profile.count_list(), reverse=True)
    low = len(counts)  # m never exceeds the number of lines
    for j, h in enumerate(counts):
        low = min(low, h + j)
        if low <= j:
            return j
    return len(counts)


def select_witness_subset(D: LatticeSet, direction: Direction, m: int) -> "WitnessSelection":
    """Deterministic witness: lines sorted by count (desc, then index),
    the j-th line receiving m - j + 1 points, lowest along-coordinates
    first within a line."""
    if m < 1:
        raise ValueError("witness size must be positive")
    profile = column_profile(D, direction)
    if max_parallel_witness(profile) < m:
        raise WitnessTooLarge(f"profile cannot host a witness of size {m}")
    return _witness_from_profile(D, profile, m)


def _witness_from_profile(D: LatticeSet, profile: ColumnProfile,
                          m: int) -> "WitnessSelection":
    """:func:`select_witness_subset` for a caller that already holds D's
    profile along the direction and knows it hosts size m."""
    direction = profile.direction
    ordered = sorted(profile.counts, key=lambda ic: (-ic[1], ic[0]))
    assignment = tuple((line, m - j) for j, (line, _count) in enumerate(ordered[:m]))
    # One pass over D fills the chosen lines.  D is sorted, so the points
    # of a line arrive in increasing along-coordinate and the first `size`
    # of them are the lowest.
    members = {line: [] for line, _size in assignment}
    k = direction.coordinate
    for p in D.points:
        bucket = members.get(p[k])
        if bucket is not None:
            bucket.append(p)
    # distinct points of D, sorted here
    chosen = sorted(p for line, size in assignment for p in members[line][:size])
    return WitnessSelection(m, direction, assignment, LatticeSet._trusted(tuple(chosen)))


@dataclass(frozen=True)
class WitnessSelection:
    """m parallel lines of D carrying exactly 1, ..., m of its points."""

    m: int
    direction: Direction
    assignment: Tuple[Tuple[int, int], ...]  # (line index, assigned size)
    subset: LatticeSet

    def __post_init__(self):
        if len(self.subset) != self.m * (self.m + 1) // 2:
            raise ValueError("witness subset has the wrong cardinality")
        sizes = sorted(c for _, c in column_profile(self.subset, self.direction).counts)
        if sizes != list(range(1, self.m + 1)):
            raise ValueError("witness columns must carry exactly 1..m points")

    def to_json(self) -> dict:
        return {"m": self.m,
                "direction": self.direction.value,
                "assignment": [list(a) for a in self.assignment],
                "subset": self.subset.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "WitnessSelection":
        return cls(field("m", data["m"], int), Direction(data["direction"]),
                   tuple((field("assignment line", i, int), field("assignment size", s, int))
                         for i, s in data["assignment"]),
                   LatticeSet.from_json(data["subset"]))


def expected_dimension(spec, *, degree: Optional[int] = None,
                       count: Optional[int] = None) -> int:
    """max(-1, #monomials - 1 - sum of binom(mi+1, 2)).

    The monomial budget is either all monomials of total degree <= degree,
    i.e. (degree+1)(degree+2)/2 of them, or an explicit count.
    """
    if (degree is None) == (count is None):
        raise ValueError("pass exactly one of degree= or count=")
    spec = _coerce_spec(spec) if spec else MultiplicitySpec(())
    if degree is not None:
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        count = (degree + 1) * (degree + 2) // 2
    return max(-1, count - 1 - spec.conditions())
