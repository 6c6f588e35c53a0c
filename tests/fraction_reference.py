"""Exact references that the tests check the package against.

The first part holds the former ``Fraction`` bodies of the asymptotic
geometry and of the oracle's condition matrix, kept as references for the
integer versions in ``seshadri``.  The condition matrix comes in two forms:
``interpolation_matrix`` writes ordinary partial derivatives, as the
package once did, and ``hasse_matrix`` writes Hasse derivatives, each row
the partial-derivative row over a! b!, as the package does now.
A polygon there is its canonical vertex tuple: counterclockwise ``Point``s
starting at the lowest, then leftmost vertex, as ``ConvexPolygon.vertices``
states it.  Each function computes what its namesake in the package does,
in ``Fraction`` arithmetic throughout; the convex hull ``make_polygon`` has
no namesake, and ``polygon`` loads its chain through the package's one
loader, ``ConvexPolygon.from_json``, to build test polygons from points.
It also holds the bit-packed GF(2) elimination that the point-free oracle
once ran on a set that is not a staircase: ``_lucas_rows`` writes B mod 2
from Lucas's theorem, one bit per point of D, and ``_gf2_rank`` ranks
those rows by an XOR basis, a second route to ``modrank(B, 2)``.

The second part holds exact checks and accessors that no command runs:
areas, containment, evaluation of a piecewise-linear function, the
identity-domination criterion, sup-norm distances and curve membership.
A former method takes its object as first argument.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm
from typing import Dict, List, Optional, Sequence, Tuple

from seshadri.dissection import AsymptoticReport
from seshadri.geometry import Axis, ConvexPolygon, DegenerateInput, Interval, Point
from seshadri._input import parsed, rational
from seshadri.lattice import LatticeSet, WitnessSelection
from seshadri.oracle import ArityMismatch, GenericPointSet, fraction_free_rank
from seshadri.reorder import PiecewiseLinear, RationalLike


class OutOfRange(ValueError):
    """A parameter lies outside the function's domain."""


def _cross(o, a, b):
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def make_polygon(points):
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


def polygon(points) -> ConvexPolygon:
    """The package polygon of the hull of ``points``, loaded through
    ``ConvexPolygon.from_json``, the package's one way in from points."""
    return ConvexPolygon.from_json([list(v) for v in make_polygon(points)])


def _canonical(chain):
    start = min(range(len(chain)), key=lambda i: (chain[i].y, chain[i].x))
    return tuple(chain[start:]) + tuple(chain[:start])


def cut_polygon(vertices, F):
    """(neg, pos) vertex tuples of the split along F = 0, None for a side
    without area."""
    vals = [F(v) for v in vertices]
    if all(v >= 0 for v in vals):
        return (None, vertices)
    if all(v <= 0 for v in vals):
        return (vertices, None)
    neg, pos = [], []
    n = len(vertices)
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
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


def height_profile(vertices, axis=Axis.X):
    """Chord-length profile by one walk along both boundary chains."""
    coords = [(coord(axis, v), other(axis, v)) for v in vertices]
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


def _chain_at(chain, i, t):
    c0, o0 = chain[i]
    if t == c0:
        return o0
    c1, o1 = chain[i + 1]
    return o0 + (t - c0) * (o1 - o0) / (c1 - c0)


def _level_decomposition(f):
    levels = sorted({v for v in f.values})
    index = {v: i for i, v in enumerate(levels)}
    masses = [Fraction(0)] * len(levels)
    densities = [Fraction(0)] * (len(levels) - 1)
    for t0, t1, v0, v1 in segments(f):
        w = t1 - t0
        if v0 == v1:
            masses[index[v0]] += w
        else:
            lo, hi = (v0, v1) if v0 < v1 else (v1, v0)
            rate = w / (hi - lo)
            for j in range(index[lo], index[hi]):
                densities[j] += rate
    return tuple(levels), tuple(masses), tuple(densities)


def monotone_reorder(f):
    """Increasing rearrangement of f on [0, width of dom(f)]."""
    levels, masses, densities = _level_decomposition(f)
    bps = [Fraction(0)]
    vals = [levels[0]]
    t = Fraction(0)
    if masses[0] > 0:
        t += masses[0]
        bps.append(t)
        vals.append(levels[0])
    for j in range(len(levels) - 1):
        dt = densities[j] * (levels[j + 1] - levels[j])
        assert dt > 0
        t += dt
        bps.append(t)
        vals.append(levels[j + 1])
        if masses[j + 1] > 0:
            t += masses[j + 1]
            bps.append(t)
            vals.append(levels[j + 1])
    if len(bps) == 1:
        t += masses[0]
        bps.append(t)
        vals.append(levels[0])
    assert t == f.width
    return PiecewiseLinear(tuple(bps), tuple(vals))


def first_crossing(fs):
    """First crossing of the rearrangement ``fs`` under the identity."""
    if fs.values[0] < 0:
        raise ValueError("profile must be nonnegative")
    for t0, t1, v0, v1 in segments(fs):
        g0, g1 = v0 - t0, v1 - t1
        if g1 >= 0:
            continue
        if g0 < 0:
            return t0
        return t0 + (t1 - t0) * g0 / (g0 - g1)
    return fs.width


def interpolation_matrix(D: LatticeSet, points: GenericPointSet, spec):
    """Condition matrix of the system at ``points`` themselves, in
    ``Fraction`` arithmetic: one row per point and derivative order (a, b)
    below its multiplicity, by total order, then by a, and one column per
    exponent (alpha, beta) of D, holding the (a, b)-partial of the monomial,
    perm(alpha, a) * perm(beta, b) * x^(alpha-a) * y^(beta-b), zero whenever
    a > alpha or b > beta."""
    return _derivative_rows(D, points, spec, perm)


def hasse_matrix(D: LatticeSet, points: GenericPointSet, spec):
    """``interpolation_matrix`` with Hasse derivatives, the form the package
    builds: row (a, b) is the (a, b)-partial row over a! b!, holding
    C(alpha, a) * C(beta, b) * x^(alpha-a) * y^(beta-b)."""
    return _derivative_rows(D, points, spec, comb)


def _derivative_rows(D: LatticeSet, points: GenericPointSet, spec, factor):
    ms = tuple(spec)
    if len(points.points) != len(ms):
        raise ArityMismatch(f"{len(points.points)} points for {len(ms)} multiplicities")
    rows = []
    for (x, y), m in zip(points.points, ms):
        x, y = Fraction(x), Fraction(y)
        for order in range(m):
            for a in range(order + 1):
                b = order - a
                rows.append([factor(alpha, a) * factor(beta, b) * x ** (alpha - a)
                             * y ** (beta - b) if a <= alpha and b <= beta else Fraction(0)
                             for alpha, beta in D])
    return rows


# --- the former GF(2) step of the point-free oracle ---------------------------

def _odd_masks(masks: Dict[int, int], m: int) -> List[int]:
    """For each k < m, the OR of ``masks[x]`` over the keys x with C(x, k) odd.

    By Lucas's theorem those are the x of which k is a submask, so each key
    hands its mask to the submasks of x below m.  They all lie among the
    submasks of x's low bits up to m's length, at most 2m of them.
    """
    out = [0] * m
    low = (1 << (m - 1).bit_length()) - 1
    for x, mask in masks.items():
        k = x = x & low
        while True:
            if k < m:
                out[k] |= mask
            if not k:
                break
            k = (k - 1) & x
    return out


def _lucas_rows(D: LatticeSet, m: int) -> List[int]:
    """Rows of B mod 2, the condition matrix at (1, 1) of the one-point
    system (D, m) after moving D to touch both axes, bit j standing for
    the j-th point of D.

    By Lucas's theorem C(x, k) is odd exactly when k & ~x == 0, so row
    (a, b) is the mask of points whose shifted alpha passes that test for
    a, ANDed with the mask of those whose shifted beta passes it for b.
    Each point sets its bit in the alpha and the beta table.
    """
    pts = D.points
    s = pts[0][0] if pts else 0  # the points are sorted by alpha
    t = min((beta for _, beta in pts), default=0)
    by_alpha: Dict[int, int] = {}
    by_beta: Dict[int, int] = {}
    for j, (alpha, beta) in enumerate(pts):
        by_alpha[alpha - s] = by_alpha.get(alpha - s, 0) | 1 << j
        by_beta[beta - t] = by_beta.get(beta - t, 0) | 1 << j
    xs, ys = _odd_masks(by_alpha, m), _odd_masks(by_beta, m)
    # (a, b) in the order of _condition_rows: a rises as b falls
    return [x & y for order in range(m) for x, y in zip(xs, ys[order::-1])]


def _gf2_rank(rows: Sequence[int]) -> int:
    """Rank over GF(2) of rows packed one bit per column into ints.

    The rows are taken last first and each is reduced against an XOR basis
    keyed by the index of its lowest set bit, joining it when something is
    left.  The rank depends on neither the row order nor the pivots.  The
    key is a bit index, not the bit itself: hashing a wide int costs a
    pass over its words.
    """
    basis: Dict[int, int] = {}
    for v in reversed(rows):
        while v:
            low = (v & -v).bit_length()
            w = basis.get(low)
            if w is None:
                basis[low] = v
                break
            v ^= w
    return len(basis)


# --- exact checks that no command runs ----------------------------------------

def coord(axis: Axis, p: Point) -> Fraction:
    return p.x if axis is Axis.X else p.y


def other(axis: Axis, p: Point) -> Fraction:
    return p.y if axis is Axis.X else p.x


def edges(P: ConvexPolygon):
    """The (a, b) vertex pairs of P's edges, counterclockwise."""
    vs = P.vertices
    return zip(vs, vs[1:] + vs[:1])


def length(interval: Interval) -> Fraction:
    return interval.hi - interval.lo


def interval_contains(interval: Interval, other: Interval) -> bool:
    return interval.lo <= other.lo and other.hi <= interval.hi


def area(P: ConvexPolygon) -> Fraction:
    """Exact shoelace area; positive by the CCW convention."""
    ps = P.pairs
    twice = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(ps, ps[1:] + ps[:1]))
    return Fraction(twice, 2 * P.den ** 2)


def polygon_contains(P: ConvexPolygon, p: Point) -> bool:
    """Closed containment test via edge cross products."""
    return all(_cross(a, b, p) >= 0 for a, b in edges(P))


def segments(f: PiecewiseLinear):
    """Yield (t0, t1, v0, v1) for each linear piece."""
    bps, vals = f.breakpoints, f.values
    for i in range(len(bps) - 1):
        yield (bps[i], bps[i + 1], vals[i], vals[i + 1])


def domain(f: PiecewiseLinear) -> tuple:
    return (f.breakpoints[0], f.breakpoints[-1])


def evaluate(f: PiecewiseLinear, t: RationalLike) -> Fraction:
    """f(t) by linear interpolation; OutOfRange outside f's domain."""
    t = rational(t)
    a, b = domain(f)
    if t < a or t > b:
        raise OutOfRange(f"{t} outside domain [{a}, {b}]")
    i = bisect_right(f.breakpoints, t) - 1
    if i == len(f.breakpoints) - 1:
        return f.values[-1]
    t0, t1 = f.breakpoints[i], f.breakpoints[i + 1]
    v0, v1 = f.values[i], f.values[i + 1]
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def pl_from_json(data: dict) -> PiecewiseLinear:
    """The function of ``PiecewiseLinear.to_json``'s output."""
    return PiecewiseLinear(tuple(parsed("breakpoint", rational, t) for t in data["breakpoints"]),
                           tuple(parsed("value", rational, v) for v in data["values"]))


def is_nondecreasing(f: PiecewiseLinear) -> bool:
    return all(a <= b for a, b in zip(f.values, f.values[1:]))


def integral(f: PiecewiseLinear) -> Fraction:
    total = Fraction(0)
    for t0, t1, v0, v1 in segments(f):
        total += (t1 - t0) * (v0 + v1) / 2
    return total


def translate(f: PiecewiseLinear, dt: RationalLike) -> PiecewiseLinear:
    dt = rational(dt)
    return PiecewiseLinear(tuple(t + dt for t in f.breakpoints), f.values)


def restrict(f: PiecewiseLinear, lo: RationalLike, hi: RationalLike) -> PiecewiseLinear:
    lo, hi = rational(lo), rational(hi)
    a, b = domain(f)
    if lo < a or hi > b or lo >= hi:
        raise OutOfRange(f"[{lo}, {hi}] is not a sub-interval of [{a}, {b}]")
    bps = [lo]
    vals = [evaluate(f, lo)]
    for t, v in zip(f.breakpoints, f.values):
        if lo < t < hi:
            bps.append(t)
            vals.append(v)
    bps.append(hi)
    vals.append(evaluate(f, hi))
    return PiecewiseLinear(tuple(bps), tuple(vals))


def equivalent(f: PiecewiseLinear, other: PiecewiseLinear) -> bool:
    """True when both represent the same function (domains included)."""
    if domain(f) != domain(other):
        return False
    grid = sorted(set(f.breakpoints) | set(other.breakpoints))
    return all(evaluate(f, t) == evaluate(other, t) for t in grid)


def max_norm_distance(f: PiecewiseLinear, g: PiecewiseLinear) -> Fraction:
    """Exact sup-norm of f - g on their common domain."""
    if domain(f) != domain(g):
        raise ValueError("functions must share a domain")
    grid = sorted(set(f.breakpoints) | set(g.breakpoints))
    return max(abs(evaluate(f, t) - evaluate(g, t)) for t in grid)


@dataclass(frozen=True)
class ReorderCriterion:
    """Outcome of the f#(t) >= t check on (0, m]."""

    m: Fraction
    width: Fraction
    verdict: bool
    failure_t: Optional[Fraction] = None


def dominates_identity(fsharp: PiecewiseLinear, m: RationalLike) -> ReorderCriterion:
    """Decide exactly whether fsharp(t) >= t for every t in (0, m].

    ``fsharp`` is expected on a domain starting at 0 (the rearrangement
    convention); a shifted domain is handled by measuring t from its left
    end.  Linearity makes breakpoint checks complete: the difference from
    the identity is itself piecewise linear, so a sign change inside a
    piece is excluded once both piece ends are nonnegative.
    """
    m = rational(m)
    if m <= 0:
        raise ValueError("m must be positive")
    a = fsharp.breakpoints[0]
    width = fsharp.width
    if m > width:
        raise OutOfRange(f"m = {m} exceeds domain length {width}")

    def g(t):
        return evaluate(fsharp, a + t) - t

    ts = sorted({bp - a for bp in fsharp.breakpoints if 0 < bp - a <= m} | {m})
    if g(Fraction(0)) < 0:
        # negative already at the left end: by continuity some t in (0, m]
        # violates too; isolate the first root to exhibit one.
        root = m
        prev_t, prev_g = Fraction(0), g(Fraction(0))
        for t in ts:
            gt = g(t)
            if gt >= 0:
                root = prev_t + (t - prev_t) * prev_g / (prev_g - gt)
                break
            prev_t, prev_g = t, gt
        witness = root / 2 if root > 0 else m
        return ReorderCriterion(m, width, False, witness)
    for t in ts:
        if g(t) < 0:
            return ReorderCriterion(m, width, False, t)
    return ReorderCriterion(m, width, True, None)


def monomials_up_to(degree: int):
    """Exponent pairs (i, j) with i + j <= degree, lexicographic."""
    return [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]


def points_on_curve(D: LatticeSet, degree: int) -> bool:
    """Whether all exponent points of D satisfy a nonzero polynomial of
    total degree at most ``degree`` (exact rank of the evaluation matrix)."""
    mons = monomials_up_to(degree)
    rows = [[Fraction(alpha**i * beta**j) for i, j in mons] for alpha, beta in D]
    return fraction_free_rank(rows) < len(mons)


def lattice_contains(D: LatticeSet, pt) -> bool:
    """Whether ``pt`` is a point of D, by bisecting its runs."""
    pt = tuple(pt)
    if len(pt) != 2:
        return False
    a, b = pt
    # the last run starting at or before (a, b)
    i = bisect_left(D.runs, (a, b + 1)) - 1
    return i >= 0 and D.runs[i][0] == a and b < D.runs[i][1] + D.runs[i][2]


def lattice_to_json(D: LatticeSet) -> list:
    return [list(p) for p in D.points]


def assignment(w: WitnessSelection) -> Tuple[Tuple[int, int], ...]:
    """(line, assigned size) of the chosen lines, largest size first."""
    totals: Dict[int, int] = {}
    for line, _first, count in w.runs:
        totals[line] = totals.get(line, 0) + count
    return tuple(sorted(totals.items(), key=lambda lc: -lc[1]))


def failing(report: AsymptoticReport) -> list:
    """The pieces, by 1-based index, that fail the report's ratio."""
    return [c.polygon for c in report.per_polygon if not c.passed]
