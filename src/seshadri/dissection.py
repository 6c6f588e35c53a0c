"""Dissections of the simplex and the asymptotic bound they certify.

A dissection peels convex polygons off the standard simplex by affine
cuts; each peeled piece must admit, for the target ratio m, a projection
interval longer than m together with a rearranged chord profile dominating
the identity up to m.  This module holds the dissection, its one
validation, the per-piece analysis and the bound, the builtin ten-piece
dissection, the dissection file format and the canonical JSON writer of
all machine output.  It imports no lattice or oracle code: the finite
certificates are :mod:`seshadri.certify`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ._input import field, parsed, rational
from .geometry import (AffineForm, Axis, ConvexPolygon, Point, cut_polygon,
                       height_profile, point)
from .reorder import PiecewiseLinear, _first_crossing, monotone_reorder


# every dissection peels the standard simplex, whose scaled integer points
# are the exponents of the degree-n monomials
SIMPLEX = ConvexPolygon.from_json([[0, 0], [1, 0], [0, 1]])


class InvalidDissection(ValueError):
    """Dissection fails its structural validation."""


@dataclass(frozen=True)
class CutStep:
    """One peeling step: the cut and the piece on its negative side.

    The cut must be negative on the peeled piece's interior and
    nonnegative on everything peeled later (see
    :func:`seshadri.certify.finite_certificate`).
    """

    cut: AffineForm
    peeled: ConvexPolygon


@dataclass(frozen=True)
class Dissection:
    """Ordered peeling of :data:`SIMPLEX` into r pieces by r - 1 affine cuts.

    ``_analysis`` is set by the first successful validation of this
    object; it takes no part in equality, and ``dataclasses.replace``
    leaves the new object unvalidated.
    """

    name: str
    steps: Tuple[CutStep, ...]
    final: ConvexPolygon
    _analysis: Optional["_Analysis"] = dataclass_field(default=None, init=False,
                                                       compare=False, repr=False)

    @property
    def r(self) -> int:
        return len(self.steps) + 1

    def polygons(self) -> List[ConvexPolygon]:
        return [s.peeled for s in self.steps] + [self.final]


def _peel(cuts: Iterable[AffineForm]) -> Iterator[Tuple[CutStep, ConvexPolygon]]:
    """Yield (step, remainder) as each cut in turn peels the remainder,
    starting from the simplex.

    Cut i peels the part of the remainder where it is negative and leaves
    the rest to cut i + 1; a cut that leaves either side without area is
    refused, naming it.  This is the one place a dissection is cut.
    """
    remainder = SIMPLEX
    for i, cut in enumerate(cuts, start=1):
        peeled, remainder = cut_polygon(remainder, cut)
        if peeled is None or remainder is None:
            side = "negative" if peeled is None else "positive"
            raise InvalidDissection(f"cut {i} leaves the {side} side of the "
                                    "remainder without area")
        yield CutStep(cut, peeled), remainder


@dataclass(frozen=True)
class DissectionValidation:
    ok: bool
    violations: Tuple[str, ...]

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": list(self.violations)}


def validate_dissection(dis: Dissection) -> DissectionValidation:
    """Re-derive every piece by cutting the simplex with the cuts.

    Every cut must leave area on both sides, and each stated piece must
    equal the derived one.  Every violation is reported; an empty list
    means the dissection satisfies the hypotheses the verification
    pipeline relies on, and gives the dissection its analysis unless it
    has one already.
    """
    v: List[str] = []
    final = SIMPLEX
    try:
        derived = _peel(s.cut for s in dis.steps)
        for i, (stated, (step, final)) in enumerate(zip(dis.steps, derived),
                                                    start=1):
            if stated != step:
                v.append(f"P{i} is not the piece cut {i} peels off")
    except InvalidDissection as exc:
        v.append(str(exc))
    else:
        if dis.final != final:
            v.append(f"P{dis.r} is not the remainder the cuts leave")
    if not v and dis._analysis is None:
        object.__setattr__(dis, "_analysis", _Analysis(dis.polygons()))
    return DissectionValidation(not v, tuple(v))


@dataclass(frozen=True)
class _AxisData:
    """What the checks read of one piece along one axis; none of it
    depends on the ratio m or the scale n.  ``score``, the supremum of the
    ratios this axis certifies, is the first crossing of the rearranged
    profile under the identity: the rearrangement lives on [0, width], so
    the crossing never exceeds the projection width ``profile.width``."""

    axis: Axis
    profile: PiecewiseLinear
    score: Fraction
    reordered: PiecewiseLinear


def _axis_data(poly: ConvexPolygon, axis: Axis) -> _AxisData:
    profile = height_profile(poly, axis)
    reordered = monotone_reorder(profile)
    return _AxisData(axis, profile, _first_crossing(reordered), reordered)


class _Analysis:
    """The (x, y) axis data of every piece of a valid dissection, built
    on first use, and its certified bound."""

    def __init__(self, polygons: Sequence[ConvexPolygon]) -> None:
        self.polygons = tuple(polygons)

    @cached_property
    def pieces(self) -> Tuple[Tuple[_AxisData, _AxisData], ...]:
        """One (x-axis, y-axis) pair per piece, in dissection order."""
        return tuple([(_axis_data(p, Axis.X), _axis_data(p, Axis.Y))
                      for p in self.polygons])

    @cached_property
    def bound(self) -> Fraction:
        """See :func:`certified_bound`."""
        return min(max(x.score, y.score) for x, y in self.pieces)


def _require_valid(dis: Dissection) -> _Analysis:
    """The analysis of ``dis``, raising :class:`InvalidDissection` listing
    every violation, if any.

    Each dissection object is checked until it passes once; a refusal is
    never remembered.
    """
    if dis._analysis is None:
        check = validate_dissection(dis)
        if not check.ok:
            raise InvalidDissection("; ".join(check.violations))
    return dis._analysis


# --- builtin ten-piece dissection -----------------------------------------

_T = Fraction(1, 13)

BUILTIN_POINT_TABLE: Dict[str, Point] = {
    "O": point(0, 0), "A": point(1, 0), "B": point(0, 1),
    "C": point(9 * _T, 0), "D": point(0, 9 * _T),
    "E": point(9 * _T, 4 * _T), "F": point(4 * _T, 9 * _T),
    "G": point(5 * _T, 0), "H": point(0, 5 * _T),
    "I": point(4 * _T, 0), "J": point(0, 4 * _T),
    "K": point(7 * _T, 6 * _T), "L": point(6 * _T, 7 * _T),
    "M": point(6 * _T, 3 * _T), "N": point(3 * _T, 6 * _T),
    "P": point(Fraction(9, 26), Fraction(9, 26)),
    "Q": point(2 * _T, 2 * _T),
    "R": point(7 * _T, 2 * _T),
    "S": point(Fraction(9, 26), 0),
}


def builtin_dissection_eckl10() -> Dissection:
    """The builtin ten-piece dissection of the simplex certifying 4/13.

    The pieces are peeled off the simplex OAB by the nine cuts;
    ``BUILTIN_POINT_TABLE`` names their vertices.
    """
    cuts = (AffineForm(-4 * _T, 1, 1), AffineForm(9 * _T, -1, 0),
            AffineForm(9 * _T, 0, -1), AffineForm(5 * _T, -1, 1),
            AffineForm(5 * _T, 1, -1), AffineForm(15 * _T, -3, 1),
            AffineForm(15 * _T, 1, -3), AffineForm(9 * _T, -1, -1),
            AffineForm(0, -1, 1))
    peeled = list(_peel(cuts))
    return Dissection("eckl10", tuple(step for step, _ in peeled), peeled[-1][1])


# --- asymptotic verification -----------------------------------------------

@dataclass(frozen=True)
class PolygonCheck:
    """Per-piece outcome of the projection-width and domination checks."""

    polygon: int          # 1-based index in dissection order
    axis: Axis
    width: Fraction
    sup_admissible: Fraction
    passed: bool
    profile: PiecewiseLinear
    reordered: PiecewiseLinear

    def to_json(self) -> dict:
        return {"polygon": self.polygon, "axis": self.axis.value,
                "width": str(self.width),
                "sup_admissible": str(self.sup_admissible),
                "pass": self.passed,
                "profile": self.profile.to_json(),
                "reordered": self.reordered.to_json()}


@dataclass(frozen=True)
class AsymptoticReport:
    m: Fraction
    per_polygon: Tuple[PolygonCheck, ...]
    overall: bool

    def to_json(self) -> dict:
        return {"m": str(self.m), "overall": self.overall,
                "per_polygon": [c.to_json() for c in self.per_polygon],
                "note": "bounds are strict: the certified ratio is a supremum, "
                        "not an attained maximum"}


def _check_polygon(i: int, x: _AxisData, y: _AxisData, m: Fraction) -> PolygonCheck:
    """Piece ``i``'s row: the x-axis unless it fails and the y-axis scores higher."""
    d = x if m < x.score or x.score >= y.score else y
    return PolygonCheck(i, d.axis, d.profile.width, d.score, m < d.score, d.profile,
                        d.reordered)


def verify_asymptotic(dis: Dissection, m) -> AsymptoticReport:
    """Strict per-piece verification of the target ratio m.

    A piece passes on an axis when m is strictly below the first crossing
    of the rearranged profile under the identity, which the projection
    width caps; the y-axis is consulted when the x-axis fails.
    """
    m = parsed("m", rational, m)
    if m <= 0:
        raise ValueError("m must be positive")
    rows = tuple([_check_polygon(i, x, y, m)
                  for i, (x, y) in enumerate(_require_valid(dis).pieces, start=1)])
    return AsymptoticReport(m, rows, all(r.passed for r in rows))


def certified_bound(dis: Dissection) -> Fraction:
    """Supremum of the ratios accepted by :func:`verify_asymptotic`.

    Per piece the best axis contributes the first identity crossing of
    the rearranged profile, at most the projection width; the bound is the
    minimum over pieces and is approached but not attained.
    """
    return _require_valid(dis).bound


# --- file formats -------------------------------------------------------------

def dissection_to_json(dis: Dissection) -> dict:
    return {"name": dis.name,
            "region": SIMPLEX.to_json(),
            "steps": [{"polygon": s.peeled.to_json(), "cut": s.cut.to_json()}
                      for s in dis.steps],
            "final": dis.final.to_json()}


def dissection_from_json(data: dict) -> Dissection:
    """The dissection ``data``, refused unless its ``region`` is the simplex,
    stated from any vertex and either way round."""
    data = field("dissection", data, dict)
    name = field("name", data["name"], str)
    polygon = ConvexPolygon.from_json
    steps = []
    for i, s in enumerate(field("steps", data["steps"], list), start=1):
        s = field(f"step {i}", s, dict)
        steps.append(CutStep(parsed(f"step {i} cut", AffineForm.from_json, s["cut"]),
                             parsed(f"step {i} polygon", polygon, s["polygon"])))
    region = parsed("region", polygon, data["region"])
    if region != SIMPLEX:
        shown = ", ".join(f"({x}, {y})" for x, y in region.vertices)
        raise ValueError(f"region {shown} is not the standard simplex (0, 0), (1, 0), (0, 1)")
    return Dissection(name, tuple(steps), parsed("final", polygon, data["final"]))


def dump_json(data: dict) -> str:
    """Canonical serialization used for all machine output.

    The text is byte-for-byte ``json.dumps(data, indent=2, sort_keys=True)``
    plus a newline: keys sorted, two-space indent, ASCII escapes.  Only
    dicts with str keys, lists, str, int, bool and None are written;
    anything else, a float above all, raises TypeError naming its type.
    """
    parts: List[str] = []
    _encode(data, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _encode(o, nl: str, out) -> None:
    """Append the canonical text of ``o``, whose lines start with ``nl``."""
    t = type(o)
    if t is str:
        out(_quote(o))
    elif t is int:
        out(str(o))
    elif o is None:
        out("null")
    elif t is bool:
        out("true" if o else "false")
    elif t is dict:
        if not o:
            out("{}")
            return
        if set(map(type, o)) != {str}:
            bad = next(k for k in o if type(k) is not str)
            raise TypeError(f"keys must be str, not {type(bad).__name__}")
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            out(sep + _quote(key) + ": ")
            _encode(o[key], inner, out)
            sep = "," + inner
        out(nl + "}")
    elif t is list:
        if not o:
            out("[]")
            return
        inner = nl + "  "
        if set(map(type, o)) == {list}:
            widths = set(map(len, o))
            flat = tuple(chain.from_iterable(o))
            if len(widths) == 1 and set(map(type, flat)) == {int}:
                # Equal-length int rows: one %-template for all of them;
                # exact ints only, so a bool never prints as 1.
                cell = "," + inner + "  "
                row = "[" + inner + "  " + cell.join(["%d"] * widths.pop()) + inner + "]"
                out("[" + inner + ("," + inner).join([row] * len(o)) % flat + nl + "]")
                return
        sep = "[" + inner
        for item in o:
            out(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out(nl + "]")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
