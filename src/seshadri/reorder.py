"""Exact monotone (increasing) rearrangement of piecewise-linear functions.

A function is stored as breakpoints with linear interpolation in between,
over exact rationals.  Rearrangements, sublevel measures and the
identity-domination check therefore involve no tolerances at all: every
comparison is an exact rational comparison, and crossings are isolated as
exact roots of linear pieces.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from ._input import parsed, rational

RationalLike = Union[Fraction, int, str]


class OutOfRange(ValueError):
    """A parameter lies outside the function's domain."""


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
        bps = tuple(rational(t) for t in self.breakpoints)
        vals = tuple(rational(v) for v in self.values)
        if len(bps) < 2:
            raise ValueError("need at least two breakpoints")
        if len(bps) != len(vals):
            raise ValueError("breakpoints and values differ in length")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    @property
    def domain(self) -> tuple:
        return (self.breakpoints[0], self.breakpoints[-1])

    @property
    def width(self) -> Fraction:
        return self.breakpoints[-1] - self.breakpoints[0]

    def __call__(self, t: RationalLike) -> Fraction:
        t = rational(t)
        a, b = self.domain
        if t < a or t > b:
            raise OutOfRange(f"{t} outside domain [{a}, {b}]")
        i = bisect_right(self.breakpoints, t) - 1
        if i == len(self.breakpoints) - 1:
            return self.values[-1]
        t0, t1 = self.breakpoints[i], self.breakpoints[i + 1]
        v0, v1 = self.values[i], self.values[i + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def segments(self):
        """Yield (t0, t1, v0, v1) for each linear piece."""
        for i in range(len(self.breakpoints) - 1):
            yield (self.breakpoints[i], self.breakpoints[i + 1],
                   self.values[i], self.values[i + 1])

    def is_nondecreasing(self) -> bool:
        return all(a <= b for a, b in zip(self.values, self.values[1:]))

    def integral(self) -> Fraction:
        total = Fraction(0)
        for t0, t1, v0, v1 in self.segments():
            total += (t1 - t0) * (v0 + v1) / 2
        return total

    def translate(self, dt: RationalLike) -> "PiecewiseLinear":
        dt = rational(dt)
        return PiecewiseLinear(tuple(t + dt for t in self.breakpoints), self.values)

    def restrict(self, lo: RationalLike, hi: RationalLike) -> "PiecewiseLinear":
        lo, hi = rational(lo), rational(hi)
        a, b = self.domain
        if lo < a or hi > b or lo >= hi:
            raise OutOfRange(f"[{lo}, {hi}] is not a sub-interval of [{a}, {b}]")
        bps = [lo]
        vals = [self(lo)]
        for t, v in zip(self.breakpoints, self.values):
            if lo < t < hi:
                bps.append(t)
                vals.append(v)
        bps.append(hi)
        vals.append(self(hi))
        return PiecewiseLinear(tuple(bps), tuple(vals))

    def equivalent(self, other: "PiecewiseLinear") -> bool:
        """True when both represent the same function (domains included)."""
        if self.domain != other.domain:
            return False
        grid = sorted(set(self.breakpoints) | set(other.breakpoints))
        return all(self(t) == other(t) for t in grid)

    def to_json(self) -> dict:
        return {"breakpoints": [str(t) for t in self.breakpoints],
                "values": [str(v) for v in self.values]}

    @classmethod
    def from_json(cls, data: dict) -> "PiecewiseLinear":
        return cls(tuple(parsed("breakpoint", rational, t) for t in data["breakpoints"]),
                   tuple(parsed("value", rational, v) for v in data["values"]))


def _level_decomposition(f: PiecewiseLinear):
    """Split f's pieces into point masses at levels and densities between them.

    Returns (levels, masses, densities): ``levels`` is the increasing tuple
    of distinct breakpoint values; ``masses[i]`` sums the widths of flat
    pieces sitting at levels[i]; ``densities[j]`` sums width/|value span|
    over the sloped pieces covering the gap (levels[j], levels[j+1]).
    """
    levels = sorted({v for v in f.values})
    index = {v: i for i, v in enumerate(levels)}
    masses = [Fraction(0)] * len(levels)
    densities = [Fraction(0)] * (len(levels) - 1)
    for t0, t1, v0, v1 in f.segments():
        w = t1 - t0
        if v0 == v1:
            masses[index[v0]] += w
        else:
            lo, hi = (v0, v1) if v0 < v1 else (v1, v0)
            rate = w / (hi - lo)
            for j in range(index[lo], index[hi]):
                densities[j] += rate
    return tuple(levels), tuple(masses), tuple(densities)


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
        if dt <= 0:
            raise RuntimeError(f"rearrangement invariant broken: no sloped piece "
                               f"crosses the value gap ({levels[j]}, {levels[j + 1]}), "
                               "which a continuous f must cross")
        t += dt
        bps.append(t)
        vals.append(levels[j + 1])
        if masses[j + 1] > 0:
            t += masses[j + 1]
            bps.append(t)
            vals.append(levels[j + 1])
    if len(bps) == 1:
        # constant function: single level carrying the whole width
        t += masses[0]
        bps.append(t)
        vals.append(levels[0])
    if t != f.width:
        raise RuntimeError(f"rearrangement invariant broken: the level sets measure "
                           f"{t}, not the domain width {f.width} (equimeasurability)")
    return PiecewiseLinear(tuple(bps), tuple(vals))


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
        return fsharp(a + t) - t

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
    for t0, t1, v0, v1 in fs.segments():
        g0, g1 = v0 - t0, v1 - t1
        if g1 >= 0:
            continue
        if g0 < 0:
            return t0
        return t0 + (t1 - t0) * g0 / (g0 - g1)
    return fs.width


def max_norm_distance(f: PiecewiseLinear, g: PiecewiseLinear) -> Fraction:
    """Exact sup-norm of f - g on their common domain."""
    if f.domain != g.domain:
        raise ValueError("functions must share a domain")
    grid = sorted(set(f.breakpoints) | set(g.breakpoints))
    return max(abs(f(t) - g(t)) for t in grid)
