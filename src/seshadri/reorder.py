"""Chord profiles and their exact monotone (increasing) rearrangement.

A function is stored as breakpoints with linear interpolation in between,
as ints over two denominators, one for the breakpoints and one for the
values, checked once where the public constructor takes it in.
Rearrangements, sublevel measures and the first crossing under the
identity therefore involve no tolerances at all: every comparison is an
exact int comparison, crossings are isolated as exact roots of linear
pieces, and a ``Fraction`` is built only for what a caller reads.

A function is a ``typing.NamedTuple`` of those four fields in the record
idiom :mod:`seshadri.geometry` states: a subclass whose ``__new__``
checks its input, whose derived values are lazy, and which refuses
assignment.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Tuple, Union

from ._input import _over_common, _read_only, lazy, rational, rational_pair
from .geometry import Axis, ConvexPolygon

RationalLike = Union[Fraction, int, str]


class PiecewiseLinear(NamedTuple("PiecewiseLinear", [("tden", int), ("ts", Tuple[int, ...]),
                                                       ("vden", int), ("vs", Tuple[int, ...])])):
    """Continuous piecewise-linear function given by breakpoint ordinates.

    ``PiecewiseLinear(breakpoints, values)`` takes strictly increasing
    rationals t0 < ... < tk with k >= 1 and as many values; the function on
    [t0, tk] is the linear interpolation of the pairs (ti, values[i]).  It
    is stored as the breakpoints ``ts`` over ``tden`` and the values ``vs``
    over ``vden``, ints with each denominator in lowest terms against its
    tuple, so equal functions have equal fields.  ``breakpoints``,
    ``values`` and ``width`` are built from them on first use.
    """

    def __new__(cls, breakpoints, values):
        # tuples and star-arguments here are built from lists, not
        # generators: a tuple built from an iterator of unknown length is
        # resized, and CPython's tuple free lists then keep the freed copies
        bps = [rational(t) for t in breakpoints]
        vals = [rational(v) for v in values]
        if len(bps) < 2:
            raise ValueError("need at least two breakpoints")
        if len(bps) != len(vals):
            raise ValueError("breakpoints and values differ in length")
        ts, tden = _over_common(bps)
        if any(a >= b for a, b in zip(ts, ts[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        vs, vden = _over_common(vals)
        # over the lcm of their lowest-terms denominators, rationals are in
        # lowest terms already
        return tuple.__new__(cls, (tden, tuple(ts), vden, tuple(vs)))

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self):
        # copy and pickle rebuild from the fields, which __new__ does not take
        return _from_ints, tuple(self)

    @lazy
    def breakpoints(self) -> Tuple[Fraction, ...]:
        return tuple([Fraction(t, self.tden) for t in self.ts])

    @lazy
    def values(self) -> Tuple[Fraction, ...]:
        return tuple([Fraction(v, self.vden) for v in self.vs])

    @lazy
    def width(self) -> Fraction:
        return Fraction(self.ts[-1] - self.ts[0], self.tden)

    @lazy
    def _strings(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        return (tuple([_text(t, self.tden) for t in self.ts]),
                tuple([_text(v, self.vden) for v in self.vs]))

    def to_json(self) -> dict:
        # the object never changes, so its strings are written once; the
        # lists are fresh for each caller
        bps, vals = self._strings
        return {"breakpoints": list(bps), "values": list(vals)}


def _lowest(den: int, xs: list) -> Tuple[int, tuple]:
    """``den`` and ``xs`` divided by their greatest common divisor."""
    g = gcd(den, *xs)
    if g == 1:
        return den, tuple(xs)
    return den // g, tuple([x // g for x in xs])


def _from_ints(tden: int, ts: list, vden: int, vs: list) -> PiecewiseLinear:
    """The function with breakpoints ts / tden and values vs / vden, brought
    to lowest terms without the constructor's checks: the caller supplies
    positive denominators and as many strictly increasing ``ts`` as ``vs``."""
    return tuple.__new__(PiecewiseLinear, _lowest(tden, ts) + _lowest(vden, vs))


def _text(x: int, den: int) -> str:
    """``str(Fraction(x, den))`` for den > 0, without building the Fraction."""
    g = gcd(x, den)
    if g == den:
        return str(x // g)
    return f"{x // g}/{den // g}"


def _spans(vs) -> int:
    """The lcm of the value spans |v1 - v0| of the sloped pieces, or 1."""
    return lcm(*[abs(v1 - v0) for v0, v1 in zip(vs, vs[1:]) if v0 != v1])


def _level_decomposition(f: PiecewiseLinear):
    """Split f's pieces into point masses at levels and densities between them.

    Returns (levels, masses, densities, (tden, vden)), in ints over the
    last two: ``levels`` is the increasing tuple of distinct breakpoint
    values, over vden; ``masses[i]`` sums the widths of flat pieces sitting
    at levels[i]; ``densities[j]`` sums width/|value span| over the sloped
    pieces covering the gap (levels[j], levels[j+1]).  Widths are over tden,
    a multiple of every span, so each density times a gap is a width.
    """
    ts, vs = f.ts, f.vs
    levels = sorted(set(vs))
    index = {v: i for i, v in enumerate(levels)}
    spans = _spans(vs)
    masses = [0] * len(levels)
    densities = [0] * (len(levels) - 1)
    for t0, t1, v0, v1 in zip(ts, ts[1:], vs, vs[1:]):
        w = (t1 - t0) * spans
        if v0 == v1:
            masses[index[v0]] += w
        else:
            lo, hi = (v0, v1) if v0 < v1 else (v1, v0)
            rate = w // (hi - lo)
            for j in range(index[lo], index[hi]):
                densities[j] += rate
    return tuple(levels), tuple(masses), tuple(densities), (f.tden * spans, f.vden)


def sublevel_measure(f: PiecewiseLinear, s: RationalLike) -> Fraction:
    """Exact length of {t in dom(f) : f(t) <= s}."""
    p, q = rational_pair(s)
    level = p * f.vden  # s, over vden * q like each value v * q
    spans = _spans(f.vs)
    acc = 0  # over tden * spans * q
    for t0, t1, v0, v1 in zip(f.ts, f.ts[1:], f.vs, f.vs[1:]):
        lo, hi = (v0, v1) if v0 < v1 else (v1, v0)
        if level >= hi * q:
            acc += (t1 - t0) * spans * q
        elif level > lo * q:
            acc += (t1 - t0) * (spans // (hi - lo)) * (level - lo * q)
    return Fraction(acc, f.tden * spans * q)


def monotone_reorder(f: PiecewiseLinear) -> PiecewiseLinear:
    """Increasing rearrangement of f, as a function on [0, width of dom(f)].

    The rearrangement is the generalized inverse of the sublevel-measure
    law: sweeping the attained levels upward, a point mass of size w at
    level v contributes a flat piece of length w at height v, and the
    absolutely continuous part between consecutive levels contributes a
    sloped piece whose length is the measure picked up in that gap.  The
    half-open left end is closed up by continuity, so the result starts at
    (0, min f).
    """
    levels, masses, densities, (tden, vden) = _level_decomposition(f)
    bps = [0]
    vals = [levels[0]]
    t = 0
    if masses[0] > 0:
        t += masses[0]
        bps.append(t)
        vals.append(levels[0])
    for j in range(len(levels) - 1):
        dt = densities[j] * (levels[j + 1] - levels[j])
        if dt <= 0:
            raise RuntimeError(f"rearrangement invariant broken: no sloped piece "
                               f"crosses the value gap ({Fraction(levels[j], vden)}, "
                               f"{Fraction(levels[j + 1], vden)}), "
                               "which a continuous f must cross")
        t += dt
        bps.append(t)
        vals.append(levels[j + 1])
        if masses[j + 1] > 0:
            t += masses[j + 1]
            bps.append(t)
            vals.append(levels[j + 1])
    if t * f.tden != (f.ts[-1] - f.ts[0]) * tden:
        raise RuntimeError(f"rearrangement invariant broken: the level sets measure "
                           f"{Fraction(t, tden)}, not the domain width {f.width} "
                           "(equimeasurability)")
    return _from_ints(tden, bps, vden, vals)


def sup_admissible(f: PiecewiseLinear) -> Fraction:
    """Largest t* with f#(t) >= t on (0, t*], capped at the domain width.

    Computed as the first exact crossing of the rearrangement strictly
    below the identity; when no such crossing exists the cap b - a is
    returned.  Can be 0 when the rearrangement drops below the identity
    immediately.
    """
    return _first_crossing(monotone_reorder(f))


def _first_crossing(fs: PiecewiseLinear) -> Fraction:
    """:func:`sup_admissible` of the function whose rearrangement is ``fs``.

    ``fs`` must be a rearrangement: it starts at t = 0 with the minimum of
    the function, and a negative minimum refuses the function as
    :func:`sup_admissible` does.  So f# - identity starts nonnegative and
    first goes negative inside a piece, at the crossing.
    """
    ts, tden, vs, vden = fs.ts, fs.tden, fs.vs, fs.vden
    if vs[0] < 0:
        raise ValueError("profile must be nonnegative")
    gs = [v * tden - t * vden for t, v in zip(ts, vs)]  # f# - identity, over tden * vden
    for i, (g0, g1) in enumerate(zip(gs, gs[1:])):
        if g1 >= 0:
            continue
        # t0 + (t1 - t0) * g0 / (g0 - g1), with g0 >= 0 > g1
        return Fraction(ts[i] * (g0 - g1) + (ts[i + 1] - ts[i]) * g0, tden * (g0 - g1))
    return fs.width


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
