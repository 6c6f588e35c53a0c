"""Dissections of the simplex and the asymptotic bound they certify.

A dissection peels convex polygons off the standard simplex by affine
cuts; each peeled piece must admit, for the target ratio m, a projection
interval longer than m together with a rearranged chord profile dominating
the identity up to m.  This module holds the dissection, its one
validation, the per-piece analysis and the bound, the builtin ten-piece
dissection, the dissection file format and the canonical JSON writer of
all machine output.  It imports no lattice or oracle code: the finite
certificates are :mod:`seshadri.certify`'s.  It loads the analysis code,
:mod:`seshadri.reorder`, only when a dissection is first analysed.

Its records are ``typing.NamedTuple``s, as in :mod:`seshadri.geometry`;
``Dissection`` is a subclass of one whose ``__dict__`` keeps the
analysis of its first successful validation.  A record is a tuple, so
:func:`dump_json` refuses one by its class rather than write it as a list.
"""

from __future__ import annotations

from _json import encode_basestring_ascii as _quote  # json.dumps's, without json
from fractions import Fraction
from itertools import chain
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ._input import _read_only, field, lazy, parsed, rational
from .geometry import AffineForm, Axis, ConvexPolygon, Point, cut_polygon, point

if TYPE_CHECKING:  # reorder loads with a first analysis, in _Analysis.pieces
    from .reorder import PiecewiseLinear


# every dissection peels the standard simplex, whose scaled integer points
# are the exponents of the degree-n monomials
SIMPLEX = ConvexPolygon.from_json([[0, 0], [1, 0], [0, 1]])


class InvalidDissection(ValueError):
    """Dissection fails its structural validation."""


class CutStep(NamedTuple):
    """One peeling step: the cut and the piece on its negative side.

    The cut must be negative on the peeled piece's interior and
    nonnegative on everything peeled later (see
    :func:`seshadri.certify.finite_certificate`).
    """

    cut: AffineForm
    peeled: ConvexPolygon


class Dissection(NamedTuple("Dissection", [("name", str), ("steps", Tuple[CutStep, ...]),
                                           ("final", ConvexPolygon)])):
    """Ordered peeling of :data:`SIMPLEX` into r pieces by r - 1 affine cuts.

    ``_analysis`` is set by the first successful validation of this
    object; it lives in the ``__dict__``, so it takes no part in equality,
    hash or repr, and ``_replace`` leaves the new object unvalidated.
    """

    _analysis: Optional["_Analysis"] = None
    __setattr__ = __delattr__ = _read_only

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


class DissectionValidation(NamedTuple):
    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Whether the dissection has no violation."""
        return not self.violations

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
        dis.__dict__["_analysis"] = _Analysis(dis.polygons())
    return DissectionValidation(tuple(v))


class _AxisData(NamedTuple):
    """What the checks read of one piece along one axis; none of it
    depends on the ratio m or the scale n.  ``score``, the supremum of the
    ratios this axis certifies, is the first crossing of the rearranged
    profile under the identity: the rearrangement lives on [0, width], so
    the crossing never exceeds the projection width ``profile.width``."""

    axis: Axis
    profile: PiecewiseLinear
    score: Fraction
    reordered: PiecewiseLinear


_Scored = Tuple[_AxisData, int, int]  # beside its score's numerator and denominator


class _Analysis:
    """The (x, y) axis data of every piece of a valid dissection, built
    on first use, each piece's better axis and its certified bound."""

    def __init__(self, polygons: Sequence[ConvexPolygon]) -> None:
        self.polygons = tuple(polygons)

    @lazy
    def pieces(self) -> Tuple[Tuple[_AxisData, _AxisData], ...]:
        """One (x-axis, y-axis) pair per piece, in dissection order."""
        from .reorder import _first_crossing, height_profile, monotone_reorder
        data = []
        for p in self.polygons:
            for axis in (Axis.X, Axis.Y):
                profile = height_profile(p, axis)
                reordered = monotone_reorder(profile)
                data.append(_AxisData(axis, profile, _first_crossing(reordered), reordered))
        return tuple(zip(data[::2], data[1::2]))

    @lazy
    def choices(self) -> Tuple[Tuple[_Scored, _Scored], ...]:
        """One (x-axis, better axis) pair per piece, in dissection order;
        the better axis is the x-axis unless the y-axis scores strictly
        higher, decided by cross-multiplying the scores' ints."""
        out = []
        for x, y in self.pieces:
            (_, a, b), (_, c, d) = xs, ys = ((x, x.score.numerator, x.score.denominator),
                                             (y, y.score.numerator, y.score.denominator))
            out.append((xs, ys if c * b > a * d else xs))
        return tuple(out)

    @lazy
    def rows(self) -> Tuple[Tuple["PolygonCheck", ...], ...]:
        """Per piece, the rows a report can give it: the x-axis passing, then
        the better axis failing and passing.  Every report of the analysis
        shares them, so a row builds its texts once."""
        return tuple([(PolygonCheck(i, x.axis, x.score, True, x.profile, x.reordered),
                       PolygonCheck(i, b.axis, b.score, False, b.profile, b.reordered),
                       PolygonCheck(i, b.axis, b.score, True, b.profile, b.reordered))
                      for i, ((x, _, _), (b, _, _)) in enumerate(self.choices, start=1)])

    @lazy
    def bound(self) -> Fraction:
        """See :func:`certified_bound`."""
        return min(best.score for _, (best, _, _) in self.choices)


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

class PolygonCheck(NamedTuple("PolygonCheck", [
        ("polygon", int), ("axis", Axis), ("sup_admissible", Fraction), ("passed", bool),
        ("profile", "PiecewiseLinear"), ("reordered", "PiecewiseLinear")])):
    """Per-piece outcome of the projection-width and domination checks;
    ``polygon`` is the 1-based index in dissection order, and the projection
    width is ``profile.width``."""

    __setattr__ = __delattr__ = _read_only

    @lazy
    def _texts(self) -> Tuple[str, str, str]:
        """The axis, width and ``sup_admissible`` texts of the row."""
        return self.axis.value, str(self.profile.width), str(self.sup_admissible)

    def to_json(self) -> dict:
        axis, width, sup_admissible = self._texts
        return {"polygon": self.polygon, "axis": axis, "width": width,
                "sup_admissible": sup_admissible, "pass": self.passed,
                "profile": self.profile.to_json(), "reordered": self.reordered.to_json()}


class AsymptoticReport(NamedTuple):
    m: Fraction
    per_polygon: Tuple[PolygonCheck, ...]

    @property
    def overall(self) -> bool:
        """Whether every piece passes."""
        return all(row.passed for row in self.per_polygon)

    def to_json(self) -> dict:
        m, per_polygon = self
        return {"m": str(m), "overall": self.overall,
                "per_polygon": [c.to_json() for c in per_polygon],
                "note": "bounds are strict: the certified ratio is a supremum, "
                        "not an attained maximum"}


def verify_asymptotic(dis: Dissection, m) -> AsymptoticReport:
    """Strict per-piece verification of the target ratio m.

    A piece passes on an axis when m is strictly below the first crossing
    of the rearranged profile under the identity, which the projection
    width caps; the piece's better axis is consulted when the x-axis fails.
    """
    m = parsed("m", rational, m)
    p, q = m.numerator, m.denominator
    if p <= 0:
        raise ValueError("m must be positive")
    analysis, rows = _require_valid(dis), []
    # m < a/b exactly when p * b < a * q, as b and q are positive
    for ((_, a, b), (_, c, d)), (x, fail, win) in zip(analysis.choices, analysis.rows):
        rows.append(x if p * b < a * q else win if p * d < c * q else fail)
    return AsymptoticReport(m, tuple(rows))


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


# The writer of each JSON scalar's text, looked up by exact type, so that a
# bool, or an int or str subclass such as an enum member, finds no writer
# of ints or strs.
_scalar = {str: _quote, int: int.__repr__,
           bool: {True: "true", False: "false"}.__getitem__,
           type(None): {None: "null"}.__getitem__}.get


def _encode(o, nl: str, out) -> None:
    """Append the canonical text of ``o``, whose lines start with ``nl``;
    a scalar dict value or list item goes out with the text before it."""
    t = type(o)
    if t is dict:
        if not o:
            out("{}")
            return
        if set(map(type, o)) != {str}:
            bad = next(k for k in o if type(k) is not str)
            raise TypeError(f"keys must be str, not {type(bad).__name__}")
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            value = o[key]
            write = _scalar(type(value))
            if write is None:
                out(f"{sep}{_quote(key)}: ")
                _encode(value, inner, out)
            else:
                out(f"{sep}{_quote(key)}: {write(value)}")
            sep = "," + inner
        out(nl + "}")
    elif t is list:
        if not o:
            out("[]")
            return
        inner = nl + "  "
        if type(o[0]) is list and set(map(type, o)) == {list}:
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
            write = _scalar(type(item))
            if write is None:
                out(sep)
                _encode(item, inner, out)
            else:
                out(sep + write(item))
            sep = "," + inner
        out(nl + "]")
    else:
        write = _scalar(t)
        if write is None:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
        out(write(o))
