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
from functools import cached_property
from itertools import chain, repeat
from math import ceil, comb, floor, lcm
from operator import itemgetter
from typing import Dict, Optional, Sequence, Tuple

from ._input import SizeGuardrail, _cell_cap, field, items
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
    profile along the direction and knows it hosts size m.

    The points of D on one line are one slice of D sorted by line: D
    itself for vertical lines, and for horizontal ones a copy stably
    sorted by beta, which keeps each line's points in increasing alpha.
    So each chosen line is found by bisection and its lowest points are
    read as runs without visiting the rest of D.
    """
    direction = profile.direction
    ordered = sorted(profile.counts, key=lambda ic: (-ic[1], ic[0]))
    chosen = sorted((line, m - j) for j, (line, _count) in enumerate(ordered[:m]))
    k = direction.coordinate
    pts = D.points if k == 0 else sorted(D.points, key=itemgetter(1))
    line_of = itemgetter(k)
    runs = []
    for line, size in chosen:
        i = bisect_left(pts, line, key=line_of)
        first = pts[i][1 - k]
        # the line holds at least `size` distinct points from pts[i] on
        if pts[i + size - 1][1 - k] - first == size - 1:
            runs.append((line, first, size))
            continue
        # the line has gaps: one run per stretch of consecutive points
        count = 0
        for p in pts[i:i + size]:
            if p[1 - k] != first + count:
                runs.append((line, first, count))
                first, count = p[1 - k], 0
            count += 1
        runs.append((line, first, count))
    return WitnessSelection(m, direction, tuple(runs))


def _expand(direction: Direction, runs) -> LatticeSet:
    """The points the canonical ``runs`` state along ``direction``."""
    if direction is Direction.VERTICAL:
        # runs sorted by (line, first) and disjoint: already in D's order
        return LatticeSet._trusted(tuple(chain.from_iterable(
            zip(repeat(line), range(first, first + count)) for line, first, count in runs)))
    # points in increasing beta: a stable sort by alpha gives D's order
    return LatticeSet._trusted(tuple(sorted(chain.from_iterable(
        zip(range(first, first + count), repeat(line)) for line, first, count in runs),
        key=itemgetter(0))))


def _refuse_run_values(i: int, run: tuple) -> None:
    """Raise ValueError naming the first value of run ``i`` that is not a
    nonnegative int, or its count if that is 0."""
    for part, v in zip(("line", "first", "count"), run):
        if field(f"run {i} {part}", v, int) < 0:
            raise ValueError(f"run {i} {part} {v!r} is negative")
    raise ValueError(f"run {i} count {run[2]!r} is not positive")


@dataclass(frozen=True)
class WitnessSelection:
    """m parallel lines of D carrying exactly 1, ..., m of its points.

    The points are stated as runs ``(line, first, count)``: the ``count``
    consecutive points from ``first`` on along the line ``line`` of the
    direction.  Runs are sorted by (line, first), and runs on one line
    neither overlap nor touch, so each subset has exactly one list of
    runs.  Construction checks all of this, and that the lines carry 1..m
    points, in one pass over the runs; before that it refuses with
    SizeGuardrail a witness whose m(m+1)/2 points exceed the cell cap.
    ``subset`` expands the points on first use.
    """

    m: int
    direction: Direction
    runs: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        m = field("m", self.m, int)
        if m * (m + 1) // 2 > _cell_cap():
            raise SizeGuardrail(f"witness of size m = {m} states {m * (m + 1) // 2} "
                                "points, more than the cell cap; set SESHADRI_MAX_CELLS")
        runs = []
        totals: Dict[int, int] = {}
        last = (-1, -1, 0)
        for i, run in enumerate(self.runs, start=1):
            if type(run) is not tuple or len(run) != 3:
                run = items(f"run {i}", run, 3)
            line, first, count = run
            if not (type(line) is type(first) is type(count) is int
                    and line >= 0 and first >= 0 and count >= 1):
                _refuse_run_values(i, run)
            if line == last[0] and first <= last[1] + last[2] or line < last[0]:
                fault = "is out of order" if run[:2] <= last[:2] else \
                    "overlaps or touches the run before it"
                raise ValueError(f"run {i} {list(run)!r} {fault}")
            totals[line] = totals.get(line, 0) + count
            runs.append(run)
            last = run
        if len(totals) != m or set(totals.values()) != set(range(1, m + 1)):
            raise ValueError("witness lines must carry exactly 1..m points")
        object.__setattr__(self, "runs", tuple(runs))

    @cached_property
    def subset(self) -> LatticeSet:
        """The witness points, sorted like any lattice set."""
        return _expand(self.direction, self.runs)

    @property
    def assignment(self) -> Tuple[Tuple[int, int], ...]:
        """(line, assigned size) of the chosen lines, largest size first."""
        totals: Dict[int, int] = {}
        for line, _first, count in self.runs:
            totals[line] = totals.get(line, 0) + count
        return tuple(sorted(totals.items(), key=lambda lc: -lc[1]))

    def to_json(self) -> dict:
        return {"m": self.m,
                "direction": self.direction.value,
                "runs": [list(r) for r in self.runs]}

    @classmethod
    def from_json(cls, data: dict) -> "WitnessSelection":
        directions = tuple(d.value for d in Direction)
        return cls(data["m"],
                   Direction(field("direction", data["direction"], str, choices=directions)),
                   tuple(field("runs", data["runs"], list)))


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
