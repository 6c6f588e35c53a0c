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
from fractions import Fraction
from math import ceil, comb, floor, lcm
from typing import Dict, Optional, Sequence, Tuple

from .geometry import AffineForm, ConvexPolygon


class EmptySet(ValueError):
    """Operation needs a nonempty lattice set."""


class WitnessTooLarge(ValueError):
    """Requested witness size exceeds what the profile can host."""


class Direction(Enum):
    VERTICAL = "vertical"      # lines of constant first coordinate
    HORIZONTAL = "horizontal"  # lines of constant second coordinate

    def line_index(self, pt) -> int:
        return pt[0] if self is Direction.VERTICAL else pt[1]


@dataclass(frozen=True)
class LatticeSet:
    """Finite subset of N^2, kept sorted and duplicate-free."""

    points: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        pts = tuple(sorted({(int(a), int(b)) for a, b in self.points}))
        for a, b in pts:
            if a < 0 or b < 0:
                raise ValueError("lattice points must be nonnegative")
        object.__setattr__(self, "points", pts)

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
        return cls(tuple((int(a), int(b)) for a, b in data))


@dataclass(frozen=True)
class MultiplicitySpec:
    """Prescribed multiplicities m1, ..., mr, each at least 1."""

    multiplicities: Tuple[int, ...]

    def __post_init__(self):
        ms = tuple(int(m) for m in self.multiplicities)
        if any(m < 1 for m in ms):
            raise ValueError("multiplicities must be positive")
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

    def count_map(self) -> Dict[int, int]:
        return dict(self.counts)

    def count_list(self) -> list:
        return [c for _, c in self.counts]

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)


def scaled_points(P: ConvexPolygon, n: int) -> LatticeSet:
    """Integer points of the closed scaled polygon n*P.

    Membership is decided column by column: each edge of the CCW polygon
    contributes one exact half-plane inequality, which pins the admissible
    integer range of the second coordinate for every integer first
    coordinate.
    """
    if n < 1:
        raise ValueError("scale must be a positive integer")
    if not P.in_first_quadrant():
        raise ValueError("polygon must lie in the first quadrant")
    xs = [v.x for v in P.vertices]
    pts = []
    for alpha in range(ceil(n * min(xs)), floor(n * max(xs)) + 1):
        lo, hi = None, None
        empty = False
        for a, b in P.edges():
            # inside n*P iff (b-a) x (q - n*a) >= 0 for q = (alpha, y)
            c = b.x - a.x
            rhs = (b.y - a.y) * (alpha - n * a.x) + c * n * a.y
            if c > 0:
                bound = Fraction(rhs, c)
                lo = bound if lo is None else max(lo, bound)
            elif c < 0:
                bound = Fraction(rhs, c)
                hi = bound if hi is None else min(hi, bound)
            elif (b.y - a.y) * (alpha - n * a.x) > 0:
                empty = True
                break
        if empty or lo is None or hi is None:
            continue
        for beta in range(max(0, ceil(lo)), floor(hi) + 1):
            pts.append((alpha, beta))
    return LatticeSet(tuple(pts))


def split_by_affine(D: LatticeSet, F: AffineForm, scale: int):
    """Split D by the scale companion of F: strictly negative side first.

    Points on the cut line go to the second (nonnegative) part, so the two
    parts always partition D.  The form is multiplied once by the positive
    lcm L of its denominators, so each point is classified by the sign of
    the integer c0 + c1*alpha + c2*beta, which is L times the scaled value.
    """
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    L = lcm(F.r0.denominator, F.r1.denominator, F.r2.denominator)
    c0 = scale * F.r0.numerator * (L // F.r0.denominator)
    c1 = F.r1.numerator * (L // F.r1.denominator)
    c2 = F.r2.numerator * (L // F.r2.denominator)
    d1, d2 = [], []
    for pt in D.points:
        if c0 + c1 * pt[0] + c2 * pt[1] < 0:
            d1.append(pt)
        else:
            d2.append(pt)
    return (LatticeSet(tuple(d1)), LatticeSet(tuple(d2)))


def column_profile(D: LatticeSet, direction: Direction) -> ColumnProfile:
    """Exact per-line counts of D along the given direction."""
    if len(D) == 0:
        raise EmptySet("cannot profile an empty set")
    counter = Counter(direction.line_index(p) for p in D)
    return ColumnProfile(direction, tuple(sorted(counter.items())))


def max_parallel_witness(profile: ColumnProfile) -> int:
    """Largest m hostable as lines carrying exactly 1, ..., m points.

    With counts sorted descending h1 >= h2 >= ..., size m is feasible iff
    hj >= m - j + 1 for every j <= m (assign the largest demand to the
    fullest line); the answer is the largest feasible m.
    """
    counts = sorted(profile.count_list(), reverse=True)
    best = 0
    for m in range(1, len(counts) + 1):
        if all(counts[j] >= m - j for j in range(m)):
            best = m
    return best


def select_witness_subset(D: LatticeSet, direction: Direction, m: int) -> "WitnessSelection":
    """Deterministic witness: lines sorted by count (desc, then index),
    the j-th line receiving m - j + 1 points, lowest along-coordinates
    first within a line."""
    if m < 1:
        raise ValueError("witness size must be positive")
    profile = column_profile(D, direction)
    if max_parallel_witness(profile) < m:
        raise WitnessTooLarge(f"profile cannot host a witness of size {m}")
    ordered = sorted(profile.counts, key=lambda ic: (-ic[1], ic[0]))
    assignment = tuple((line, m - j) for j, (line, _count) in enumerate(ordered[:m]))
    # One pass over D fills the chosen lines.  D is sorted, so the points
    # of a line arrive in increasing along-coordinate and the first `size`
    # of them are the lowest.
    members = {line: [] for line, _size in assignment}
    for p in D.points:
        bucket = members.get(direction.line_index(p))
        if bucket is not None:
            bucket.append(p)
    chosen = [p for line, size in assignment for p in members[line][:size]]
    return WitnessSelection(m, direction, assignment, LatticeSet(tuple(chosen)))


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
        return cls(int(data["m"]), Direction(data["direction"]),
                   tuple((int(i), int(s)) for i, s in data["assignment"]),
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
