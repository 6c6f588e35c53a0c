"""Exact monotone (increasing) rearrangement of piecewise-linear functions.

A function is stored as breakpoints with linear interpolation in between,
over exact rationals.  Rearrangements, sublevel measures and the first
crossing under the identity therefore involve no tolerances at all: every
comparison is an exact rational comparison, and crossings are isolated as
exact roots of linear pieces.  The rearrangement and the first crossing
compute in ints over common denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Tuple, Union

from ._input import rational

RationalLike = Union[Fraction, int, str]


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function given by breakpoint ordinates.

    ``breakpoints`` are strictly increasing rationals t0 < ... < tk with
    k >= 1; the function on [t0, tk] is the linear interpolation of the
    pairs (ti, values[i]).
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        # tuples of lists: a tuple built from an iterator of unknown length
        # is resized, and CPython's tuple free lists then keep the freed copies
        bps = tuple([rational(t) for t in self.breakpoints])
        vals = tuple([rational(v) for v in self.values])
        if len(bps) < 2:
            raise ValueError("need at least two breakpoints")
        if len(bps) != len(vals):
            raise ValueError("breakpoints and values differ in length")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    @property
    def width(self) -> Fraction:
        return self.breakpoints[-1] - self.breakpoints[0]

    def segments(self):
        """Yield (t0, t1, v0, v1) for each linear piece."""
        for i in range(len(self.breakpoints) - 1):
            yield (self.breakpoints[i], self.breakpoints[i + 1],
                   self.values[i], self.values[i + 1])

    def to_json(self) -> dict:
        return {"breakpoints": [str(t) for t in self.breakpoints],
                "values": [str(v) for v in self.values]}


def _over_common(xs) -> Tuple[list, int]:
    """The rationals ``xs`` as ints over their least common denominator."""
    den = lcm(*[x.denominator for x in xs])
    return [x.numerator * (den // x.denominator) for x in xs], den


def _level_decomposition(f: PiecewiseLinear):
    """Split f's pieces into point masses at levels and densities between them.

    Returns (levels, masses, densities, (tden, vden)), in ints over the
    last two: ``levels`` is the increasing tuple of distinct breakpoint
    values, over vden; ``masses[i]`` sums the widths of flat pieces sitting
    at levels[i]; ``densities[j]`` sums width/|value span| over the sloped
    pieces covering the gap (levels[j], levels[j+1]).  Widths are over tden,
    a multiple of every span, so each density times a gap is a width.
    """
    ts, tden = _over_common(f.breakpoints)
    vs, vden = _over_common(f.values)
    levels = sorted(set(vs))
    index = {v: i for i, v in enumerate(levels)}
    spans = lcm(*[abs(v1 - v0) for v0, v1 in zip(vs, vs[1:]) if v0 != v1])
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
    return tuple(levels), tuple(masses), tuple(densities), (tden * spans, vden)


def sublevel_measure(f: PiecewiseLinear, s: RationalLike) -> Fraction:
    """Exact length of {t in dom(f) : f(t) <= s}."""
    s = rational(s)
    acc = Fraction(0)
    for t0, t1, v0, v1 in f.segments():
        w = t1 - t0
        if v0 == v1:
            if v0 <= s:
                acc += w
        else:
            lo, hi = (v0, v1) if v0 < v1 else (v1, v0)
            if s >= hi:
                acc += w
            elif s > lo:
                acc += w * (s - lo) / (hi - lo)
    return acc


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
    if Fraction(t, tden) != f.width:
        raise RuntimeError(f"rearrangement invariant broken: the level sets measure "
                           f"{Fraction(t, tden)}, not the domain width {f.width} "
                           "(equimeasurability)")
    return PiecewiseLinear(tuple([Fraction(b, tden) for b in bps]),
                           tuple([Fraction(v, vden) for v in vals]))


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

    The rearrangement starts at the minimum of the function, so a
    negative first value refuses the function as :func:`sup_admissible`
    does.
    """
    if fs.values[0] < 0:
        raise ValueError("profile must be nonnegative")
    ts, tden = _over_common(fs.breakpoints)
    vs, vden = _over_common(fs.values)
    gs = [v * tden - t * vden for t, v in zip(ts, vs)]  # f# - identity, over tden * vden
    for i, (g0, g1) in enumerate(zip(gs, gs[1:])):
        if g1 >= 0:
            continue
        if g0 < 0:
            return fs.breakpoints[i]
        # t0 + (t1 - t0) * g0 / (g0 - g1)
        return Fraction(ts[i] * (g0 - g1) + (ts[i + 1] - ts[i]) * g0, tden * (g0 - g1))
    return fs.width
