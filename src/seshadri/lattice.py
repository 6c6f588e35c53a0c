"""Finite monomial-exponent sets and the parallel-lines witness.

Covers the integer points of n times the simplex, one run per column,
splitting a set by an affine form at a given scale, per-line count
profiles, and the deterministic selection of a subset whose columns carry
exactly 1, 2, ..., m points on m parallel lines.

Its records are ``typing.NamedTuple``s, as in :mod:`seshadri.geometry`, but
``LatticeSet``, whose ``len`` and iteration are its points': it is a plain
read-only class, equal by its runs.  ``MultiplicitySpec`` checks its input
in ``__new__``; ``by_count`` and ``subset`` are lazy, and refuse assignment.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from itertools import accumulate, chain, compress, groupby, repeat
from math import comb
from operator import itemgetter
from typing import Dict, NamedTuple, Sequence, Tuple

from ._input import _over_common, _read_only, check_cells, field, items, lazy
from .geometry import AffineForm


class EmptySet(ValueError):
    """Operation needs a nonempty lattice set."""


class WitnessTooLarge(ValueError):
    """Requested witness size exceeds what the profile can host."""


class Direction(Enum):
    VERTICAL = "vertical"      # lines of constant first coordinate
    HORIZONTAL = "horizontal"  # lines of constant second coordinate


Run = Tuple[int, int, int]


class LatticeSet:
    """Finite subset of N^2, stored as its vertical runs.

    A run ``(alpha, first, count)`` holds the ``count`` points (alpha,
    first), ..., (alpha, first + count - 1).  Runs are sorted by (alpha,
    first), and runs on one column neither overlap nor touch, so each set
    has exactly one list of runs: equal sets have equal runs, and equality
    and hash read ``runs`` alone.  ``size`` is the number of points, and
    ``points``, the sorted tuple of points, is expanded from the runs on
    first use.  A convex piece of n*P has about n runs, so every step below
    costs time linear in runs, not points.

    The public constructor takes untrusted points: each must be a pair of
    nonnegative ints (not bools, not floats); duplicates are dropped.
    Code whose output already has the run form builds sets through
    :meth:`_of_runs` instead.
    """

    def __init__(self, points: Sequence = ()):
        pts = set()
        for i, pt in enumerate(points, start=1):
            a, b = items(f"point {i}", pt, 2)
            if not (type(a) is int and type(b) is int):
                raise ValueError(f"point {i} {list(pt)!r}: exponents must be integers")
            if a < 0 or b < 0:
                raise ValueError(f"point {i} {list(pt)!r}: exponents must be nonnegative")
            pts.add((a, b))
        ordered = tuple(sorted(pts))
        runs = []
        for a, b in ordered:
            if runs and runs[-1][0] == a and runs[-1][1] + runs[-1][2] == b:
                runs[-1][2] += 1
            else:
                runs.append([a, b, 1])
        self.__dict__.update(runs=tuple(map(tuple, runs)), size=len(ordered), points=ordered)

    @classmethod
    def _of_runs(cls, runs: Tuple[Run, ...], size: int) -> "LatticeSet":
        """Wrap canonical runs of ``size`` points in total, without checking them."""
        obj = object.__new__(cls)
        obj.__dict__.update(runs=runs, size=size)
        return obj

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        return self.runs == other.runs if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self.runs)

    def __repr__(self):
        return f"LatticeSet(runs={self.runs!r}, size={self.size!r})"

    @lazy
    def points(self) -> Tuple[Tuple[int, int], ...]:
        """The points, sorted by (alpha, beta)."""
        return _points_of(self.runs)

    def __len__(self):
        return self.size

    def __iter__(self):
        return iter(self.points)

    @classmethod
    def from_json(cls, data: Sequence) -> "LatticeSet":
        """The set of the points ``data``, where a point that repeats an
        earlier one is refused, naming both, rather than dropped."""
        D = cls(tuple(data))
        if len(D) != len(data):
            first = {}  # point: its index
            for i, pt in enumerate(map(tuple, data), start=1):
                if pt in first:
                    raise ValueError(f"point {i} {list(pt)!r} repeats point {first[pt]}")
                first[pt] = i
        return D


def _points_of(runs: Sequence[Run]) -> Tuple[Tuple[int, int], ...]:
    """The points the vertical ``runs`` hold, in their order."""
    return tuple(chain.from_iterable(zip(repeat(a), range(f, f + c)) for a, f, c in runs))


def _uncovered(keys: list, spans, other, w: int, line: int) -> None:
    """Append ``b * w + line`` to ``keys`` for each coordinate b that the
    sorted disjoint half-open intervals ``spans`` cover and the sorted
    disjoint intervals ``other`` do not, in one merge pass."""
    j, end = 0, len(other)
    for lo, hi in spans:
        while j < end and other[j][1] <= lo:
            j += 1
        k = j
        while lo < hi and k < end:
            olo, ohi = other[k]
            if olo >= hi:
                break
            keys.extend(range(lo * w + line, olo * w, w))  # empty unless lo < olo
            if ohi > lo:
                lo = ohi
            k += 1
        keys.extend(range(lo * w + line, hi * w, w))


def _transpose(runs: Sequence[Run]) -> Tuple[Run, ...]:
    """The same points as canonical runs along the other direction.

    A run along the other direction opens at a line that covers its
    coordinate where the line before does not, and closes at a line that
    covers it where the line after does not.  Sorted, the k-th opening and
    the k-th closing on one coordinate bound its k-th run, so one pass over
    the lines finds all runs, in time linear in input and output runs.
    Each opening and closing is one int, coordinate times w plus line for
    a w above every line, so that ints sort as (coordinate, line) pairs.
    """
    if not runs:
        return ()
    lines = {line: [(f, f + c) for _, f, c in group]
             for line, group in groupby(runs, itemgetter(0))}
    w = runs[-1][0] + 1
    opens, closes = [], []
    for line, spans in lines.items():
        _uncovered(opens, spans, lines.get(line - 1, ()), w, line)
        _uncovered(closes, spans, lines.get(line + 1, ()), w, line)
    opens.sort()
    closes.sort()
    return tuple([(o // w, o % w, c - o + 1) for o, c in zip(opens, closes)])


class MultiplicitySpec(NamedTuple("MultiplicitySpec", [("multiplicities", Tuple[int, ...])])):
    """Prescribed multiplicities m1, ..., mr, each at least 1."""

    __slots__ = ()

    def __new__(cls, multiplicities):
        ms = tuple(multiplicities)
        for m in ms:
            if field("multiplicity", m, int) < 1:
                raise ValueError(f"multiplicity {m!r} is not positive")
        return tuple.__new__(cls, (ms,))

    def conditions(self) -> int:
        """Total number of vanishing conditions imposed."""
        return sum(comb(m + 1, 2) for m in self.multiplicities)


def _coerce_spec(spec) -> MultiplicitySpec:
    return spec if isinstance(spec, MultiplicitySpec) else MultiplicitySpec(spec)


class ColumnProfile(NamedTuple("ColumnProfile", [("direction", Direction),
                                                   ("counts", Tuple[Tuple[int, int], ...])])):
    """Counts of set points per parallel line in the chosen direction:
    ``counts`` holds (line index, count) pairs, sorted by index.

    ``by_count`` holds the same pairs sorted once, by count descending,
    ties in line order: the witness size and the witness's lines are both
    read from it.
    """

    __setattr__ = __delattr__ = _read_only

    @lazy
    def by_count(self) -> Tuple[Tuple[int, int], ...]:
        # a stable sort keeps equal counts in the order of their lines
        return tuple(sorted(self.counts, key=itemgetter(1), reverse=True))


def scaled_points(n: int) -> LatticeSet:
    """Integer points of n times the simplex, the exponents of the monomials
    of degree at most n: column alpha is the run beta = 0..n - alpha.  A
    scale at which the unit square around it holds more integer points,
    (n + 1)^2, than the cell cap raises SizeGuardrail before any run is built."""
    if n < 1:
        raise ValueError("scale must be a positive integer")
    check_cells((n + 1) ** 2, f"scale n = {n}: the scaled polygon's bounding box holds "
                              f"{(n + 1) ** 2} integer points, a count that")
    return LatticeSet._of_runs(tuple([(alpha, 0, n + 1 - alpha) for alpha in range(n + 1)]),
                               (n + 1) * (n + 2) // 2)


def split_by_affine(D: LatticeSet, F: AffineForm, scale: int):
    """Split D by the scale companion of F: strictly negative side first.

    Points on the cut line go to the second (nonnegative) part, so the two
    parts always partition D.  The form is multiplied once by the positive
    lcm L of its denominators, so a point's side is the sign of the integer
    c0 + c1*alpha + c2*beta, which is L times the scaled value.  Along one
    column that sign changes at most once, so each run of D is cut once,
    at an integer threshold on beta: one list holds every column's
    threshold, and each run is cut by comparing its ends with it.
    """
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    (c0, c1, c2), _ = _over_common(F)
    c0 *= scale
    runs = D.runs
    # each column's threshold t: its points below t go to `low`, the rest
    # to `high`, and `low` is the negative part unless c2 < 0
    if c2 > 0:    # v + c2*beta < 0 iff beta < ceil(-v / c2)
        cuts = [-((c0 + c1 * alpha) // c2) for alpha, _, _ in runs]
    elif c2 < 0:  # v + c2*beta < 0 iff beta > floor(v / -c2)
        cuts = [(c0 + c1 * alpha) // -c2 + 1 for alpha, _, _ in runs]
    else:         # the whole column goes one way
        cuts = [first + count if c0 + c1 * alpha < 0 else first
                for alpha, first, count in runs]
    low, high = [], []
    for run, t in zip(runs, cuts):
        alpha, first, count = run
        if t <= first:
            high.append(run)
        elif t >= first + count:
            low.append(run)
        else:
            low.append((alpha, first, t - first))
            high.append((alpha, t, first + count - t))
    # both parts keep D's order, and a cut run stays apart from its neighbours
    low_set = LatticeSet._of_runs(tuple(low), sum(map(itemgetter(2), low)))
    high_set = LatticeSet._of_runs(tuple(high), len(D) - len(low_set))
    return (high_set, low_set) if c2 < 0 else (low_set, high_set)


def column_profile(D: LatticeSet, direction: Direction) -> ColumnProfile:
    """Exact per-line counts of D along the given direction, in time
    linear in runs and lines.

    The row profile steps through every row from D's lowest to one past
    its highest: when D spans more rows than it has points, their number
    is checked against the cell cap, and refused with SizeGuardrail,
    before any step is allocated.
    """
    if len(D) == 0:
        raise EmptySet("cannot profile an empty set")
    if direction is Direction.VERTICAL:
        counts: Dict[int, int] = {}
        for alpha, _first, count in D.runs:  # sorted by alpha
            counts[alpha] = counts.get(alpha, 0) + count
        return ColumnProfile(direction, tuple(counts.items()))
    # a run adds 1 to each of its rows: sum its ends as steps +1 and -1,
    # then add up the steps row by row
    low = min(map(itemgetter(1), D.runs))
    rows = max(f + c for _, f, c in D.runs) - low
    if rows > len(D):
        check_cells(rows, f"a row profile of {len(D)} points spanning {rows} rows, a count that")
    steps = [0] * (rows + 1)
    for _alpha, first, count in D.runs:
        steps[first - low] += 1
        steps[first + count - low] -= 1
    levels = list(accumulate(steps))
    rows = list(compress(zip(range(low, low + len(levels)), levels), levels))
    # tuple of a list: a tuple built from an iterator of unknown length is
    # resized, and CPython's tuple free lists then keep the freed copies
    return ColumnProfile(direction, tuple(rows))


def max_parallel_witness(profile: ColumnProfile) -> int:
    """Largest m hostable as lines carrying exactly 1, ..., m points.

    With counts sorted descending h0 >= h1 >= ..., size m is feasible iff
    hj >= m - j for every j < m (assign the largest demand to the fullest
    line), i.e. iff min over j < m of hj + j is at least m.  That minimum
    falls as m grows, so the feasible sizes run from 1 up to the answer,
    and one pass finds the first infeasible size.
    """
    low = len(profile.by_count)  # m never exceeds the number of lines
    for j, (_line, h) in enumerate(profile.by_count):
        if h + j < low:
            low = h + j
        if low <= j:
            return j
    return len(profile.by_count)


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

    D's runs along the direction (its own runs for vertical lines, their
    transposition for horizontal ones) are sorted by line, so each chosen
    line is found by bisection and its lowest runs are read, the last one
    cut to the assigned size, without visiting the rest of D.
    """
    direction = profile.direction
    # the j-th fullest line gets m - j points
    chosen = sorted(zip(map(itemgetter(0), profile.by_count[:m]), range(m, 0, -1)))
    lines = D.runs if direction is Direction.VERTICAL else _transpose(D.runs)
    runs = []
    for line, size in chosen:
        i = bisect_left(lines, (line,))
        _line, first, count = lines[i]
        while count < size:  # the line holds at least `size` points from run i on
            runs.append(lines[i])
            size -= count
            i += 1
            _line, first, count = lines[i]
        runs.append((line, first, size))
    return WitnessSelection(m, direction, tuple(runs))


def _expand(direction: Direction, runs) -> LatticeSet:
    """The lattice set of the canonical ``runs`` along ``direction``."""
    # vertical runs already have a lattice set's form
    return LatticeSet._of_runs(runs if direction is Direction.VERTICAL else _transpose(runs),
                               sum(map(itemgetter(2), runs)))


def _refuse_run_values(i: int, run: tuple) -> None:
    """Raise ValueError naming the first value of run ``i`` that is not a
    nonnegative int, or its count if that is 0."""
    for part, v in zip(("line", "first", "count"), run):
        if field(f"run {i} {part}", v, int) < 0:
            raise ValueError(f"run {i} {part} {v!r} is negative")
    raise ValueError(f"run {i} count {run[2]!r} is not positive")


class WitnessSelection(NamedTuple("WitnessSelection", [("m", int), ("direction", Direction),
                                                         ("runs", Tuple[Run, ...])])):
    """m parallel lines of D carrying exactly 1, ..., m of its points.

    The points are stated as runs ``(line, first, count)``: the ``count``
    consecutive points from ``first`` on along the line ``line`` of the
    direction.  Runs are sorted by (line, first), and runs on one line
    neither overlap nor touch, so each subset has exactly one list of
    runs.  The constructor trusts its caller, as the witness selection
    builds exactly this; :meth:`from_json` checks it of a witness read
    from outside.  ``subset``, the witness as a lattice set, is built on
    first use.
    """

    __setattr__ = __delattr__ = _read_only

    @lazy
    def subset(self) -> LatticeSet:
        """The witness points as a lattice set."""
        return _expand(self.direction, self.runs)

    def to_json(self) -> dict:
        m, direction, runs = self
        return {"m": m, "direction": direction.value, "runs": [list(r) for r in runs]}

    @classmethod
    def from_json(cls, data: dict) -> "WitnessSelection":
        """The witness ``data``, refused unless its runs are canonical and
        its lines carry exactly 1..m points, checked in one pass over the
        runs; before that it refuses with SizeGuardrail a witness whose
        m(m+1)/2 points exceed the cell cap."""
        data = field("witness", data, dict)
        m, directions = data["m"], tuple(d.value for d in Direction)
        direction = Direction(field("direction", data["direction"], str, choices=directions))
        stated = field("runs", data["runs"], list)
        if field("m", m, int) < 1:
            raise ValueError(f"witness size m = {m} is not positive")
        check_cells(m * (m + 1) // 2,
                    f"witness of size m = {m} states {m * (m + 1) // 2} points, a count that")
        runs = []
        totals: Dict[int, int] = {}
        last = (-1, -1, 0)
        for i, run in enumerate(stated, start=1):
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
        return cls(m, direction, tuple(runs))


def expected_dimension(spec, *, count: int) -> int:
    """max(-1, count - 1 - sum of binom(mi+1, 2)) for a system of ``count``
    monomials; all monomials of degree <= d are (d+1)(d+2)/2 of them."""
    return max(-1, count - 1 - _coerce_spec(spec).conditions())
