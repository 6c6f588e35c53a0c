"""Dissection certificates for multi-point Seshadri lower bounds.

A dissection peels convex polygons off the standard simplex by affine
cuts; each peeled piece must admit, for the target ratio m, a projection
interval longer than m together with a rearranged chord profile dominating
the identity up to m.  The same data yields finite-scale certificates: the
integer points of each scaled piece host a parallel-lines witness whose
non-specialty the rank oracle can confirm independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from math import ceil, floor
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import __about__
from ._input import field, parsed, rational
from .geometry import (AffineForm, Axis, ConvexPolygon, Point, cut_polygon,
                       height_profile, make_polygon, point, x_projection)
# select_witness_subset and sup_admissible are not called here but stay
# module attributes, like every lattice and rearrangement step, so that
# tracing can rebind them.
from .lattice import (Direction, LatticeSet, WitnessSelection, _witness_from_profile,
                      column_profile, expected_dimension, max_parallel_witness,
                      scaled_points, select_witness_subset, split_by_affine)
from .oracle import (OracleVerdict, SizeGuardrail, _cell_cap, system_dimension_exact,
                     system_dimension_modp)
from .reorder import (PiecewiseLinear, _first_crossing, monotone_reorder,
                      sup_admissible)


_ORACLE_MODES = ("none", "modular", "exact")


class InvalidDissection(ValueError):
    """Dissection fails its structural validation."""


class EmptyPolygonAtScale(ValueError):
    """Some piece contains no lattice points at the requested scale."""


@dataclass(frozen=True)
class CutStep:
    """One peeling step: the cut and the piece on its negative side.

    The cut must be negative on the peeled piece's interior and
    nonnegative on everything peeled later (dimension -1 role).
    """

    cut: AffineForm
    peeled: ConvexPolygon


@dataclass(frozen=True)
class Dissection:
    """Ordered peeling of a region into r pieces by r - 1 affine cuts.

    ``_analysis`` is set by the first successful validation of this
    object; it takes no part in equality, and ``dataclasses.replace``
    leaves the new object unvalidated.
    """

    name: str
    region: ConvexPolygon
    steps: Tuple[CutStep, ...]
    final: ConvexPolygon
    _analysis: Optional["_Analysis"] = dataclass_field(default=None, init=False,
                                                       compare=False, repr=False)

    @property
    def r(self) -> int:
        return len(self.steps) + 1

    def polygons(self) -> List[ConvexPolygon]:
        return [s.peeled for s in self.steps] + [self.final]


def _peel(region: ConvexPolygon, cuts: Iterable[AffineForm]
          ) -> Iterator[Tuple[CutStep, ConvexPolygon]]:
    """Yield (step, remainder) as each cut in turn peels the remainder.

    Cut i peels the part of the remainder where it is negative and leaves
    the rest to cut i + 1; a cut that leaves either side without area is
    refused, naming it.  This is the one place a dissection is cut.
    """
    remainder = region
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
    """Re-derive every piece by cutting the region with the cuts.

    The region must lie in the first quadrant, every cut must leave area
    on both sides, and each stated piece must equal the derived one.
    Every violation is reported; an empty list means the dissection
    satisfies the hypotheses the verification pipeline relies on, and
    gives the dissection its analysis unless it has one already.
    """
    v: List[str] = []
    if not dis.region.in_first_quadrant():
        v.append("region leaves the first quadrant")
    final = dis.region
    try:
        derived = _peel(dis.region, (s.cut for s in dis.steps))
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
    depends on the ratio m or the scale n."""

    profile: PiecewiseLinear
    width: Fraction
    sup: Fraction
    reordered: PiecewiseLinear


class _Analysis:
    """Per-piece axis data and the certified bound of a valid dissection,
    each computed on first use."""

    def __init__(self, polygons: Sequence[ConvexPolygon]) -> None:
        self.polygons = tuple(polygons)
        self._axes: Dict[Tuple[int, Axis], _AxisData] = {}
        self._bound: Optional[Fraction] = None

    def axis(self, i: int, axis: Axis) -> _AxisData:
        """Data of piece ``i`` (0-based, dissection order) along ``axis``."""
        data = self._axes.get((i, axis))
        if data is None:
            poly = self.polygons[i]
            profile = height_profile(poly, axis)
            reordered = monotone_reorder(profile)
            data = _AxisData(profile, x_projection(poly, axis).length,
                             _first_crossing(reordered), reordered)
            self._axes[(i, axis)] = data
        return data

    @property
    def bound(self) -> Fraction:
        """See :func:`certified_bound`."""
        if self._bound is None:
            scores = []
            for i in range(len(self.polygons)):
                axes = (self.axis(i, Axis.X), self.axis(i, Axis.Y))
                scores.append(max(min(d.width, d.sup) for d in axes))
            self._bound = min(scores)
        return self._bound


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
    region = make_polygon([(0, 0), (1, 0), (0, 1)])
    peeled = list(_peel(region, cuts))
    return Dissection("eckl10", region, tuple(step for step, _ in peeled),
                      peeled[-1][1])


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

    def failing(self) -> List[int]:
        return [c.polygon for c in self.per_polygon if not c.passed]

    def to_json(self) -> dict:
        return {"m": str(self.m), "overall": self.overall,
                "per_polygon": [c.to_json() for c in self.per_polygon],
                "note": "bounds are strict: the certified ratio is a supremum, "
                        "not an attained maximum"}


def _check_polygon(analysis: _Analysis, i: int, m: Fraction) -> PolygonCheck:
    """Try the x-axis first, then the y-axis; keep the better failure."""
    candidates = []
    for axis in (Axis.X, Axis.Y):
        d = analysis.axis(i, axis)
        passed = m < d.width and m < d.sup
        check = PolygonCheck(i + 1, axis, d.width, d.sup, passed, d.profile,
                             d.reordered)
        if passed:
            return check
        candidates.append((min(d.width, d.sup), check))
    return max(candidates, key=lambda c: c[0])[1]


def verify_asymptotic(dis: Dissection, m) -> AsymptoticReport:
    """Strict per-piece verification of the target ratio m.

    A piece passes on an axis when m is strictly below both the projection
    width and the first crossing of the rearranged profile under the
    identity; the y-axis is consulted when the x-axis fails.
    """
    m = parsed("m", rational, m)
    if m <= 0:
        raise ValueError("m must be positive")
    analysis = _require_valid(dis)
    rows = tuple(_check_polygon(analysis, i, m) for i in range(dis.r))
    return AsymptoticReport(m, rows, all(r.passed for r in rows))


def certified_bound(dis: Dissection) -> Fraction:
    """Supremum of the ratios accepted by :func:`verify_asymptotic`.

    Per piece the best axis contributes min(projection width, first
    identity crossing of the rearranged profile); the bound is the minimum
    over pieces and is approached but not attained.
    """
    return _require_valid(dis).bound


# --- finite certificates -----------------------------------------------------

@dataclass(frozen=True)
class PolygonWitness:
    """Scale-n record for one piece: its lattice set size and witness."""

    polygon: int
    role: str                 # "dim-minus-one" | "final"
    lattice_count: int
    m: int
    witness: WitnessSelection
    deviation: Fraction       # |m - n*target| / (n*target)
    padding_ok: Optional[bool] = None   # final piece only
    oracle: Optional[OracleVerdict] = None

    def to_json(self) -> dict:
        return {"polygon": self.polygon, "role": self.role,
                "lattice_count": self.lattice_count, "m": self.m,
                "witness": self.witness.to_json(),
                "deviation": str(self.deviation),
                "padding_ok": self.padding_ok,
                "oracle": self.oracle.to_json() if self.oracle else None}

    @classmethod
    def from_json(cls, data: dict) -> "PolygonWitness":
        return cls(field("polygon", data["polygon"], int),
                   field("role", data["role"], str, choices=("dim-minus-one", "final")),
                   field("lattice_count", data["lattice_count"], int),
                   field("m", data["m"], int), WitnessSelection.from_json(data["witness"]),
                   parsed("deviation", rational, data["deviation"]),
                   field("padding_ok", data.get("padding_ok"), bool, optional=True),
                   OracleVerdict.from_json(data["oracle"]) if data.get("oracle") else None)


@dataclass(frozen=True)
class FiniteCertificate:
    """Machine-checkable record of a scale-n reduction run."""

    dissection: str
    scale: int
    degree: int
    oracle_mode: str
    seed: int
    per_polygon: Tuple[PolygonWitness, ...]
    min_ratio: Fraction
    tool_version: str = __about__.__version__

    @property
    def statement(self) -> str:
        """The claim the cut-order assembly plus final-piece padding yields."""
        ms = ", ".join(str(p.m) for p in self.per_polygon)
        return (f"the degree-{self.degree} plane system with multiplicities "
                f"({ms}) at {len(self.per_polygon)} very general points is "
                f"non-special of dimension >= 0")

    def to_json(self) -> dict:
        return {"tool_version": self.tool_version, "dissection": self.dissection,
                "scale": self.scale, "degree": self.degree,
                "oracle_mode": self.oracle_mode, "seed": self.seed,
                "min_ratio": str(self.min_ratio),
                "statement": self.statement,
                "per_polygon": [p.to_json() for p in self.per_polygon]}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteCertificate":
        return cls(field("dissection", data["dissection"], str),
                   field("scale", data["scale"], int), field("degree", data["degree"], int),
                   field("oracle_mode", data["oracle_mode"], str, choices=_ORACLE_MODES),
                   field("seed", data["seed"], int),
                   tuple(PolygonWitness.from_json(p) for p in data["per_polygon"]),
                   parsed("min_ratio", rational, data["min_ratio"]),
                   field("tool_version", data["tool_version"], str))


def finite_certificate(dis: Dissection, n: int, oracle_mode: str = "none",
                       seed: int = 0) -> FiniteCertificate:
    """Instantiate the dissection at scale n and certify every piece.

    The integer points of the scaled region are consumed cut by cut (ties
    stay with the remainder), each piece gets its best parallel-lines
    witness over both directions, and optionally an oracle
    verdict on the witness system.  The final piece additionally records
    whether its full lattice set pads the witness to expected dimension
    at least 0.  A scale at which the scaled region's bounding box holds
    more integer points than the cell cap raises SizeGuardrail before any
    point is enumerated.
    """
    if field("n", n, int) < 1:
        raise ValueError("scale must be a positive integer")
    field("oracle_mode", oracle_mode, str, choices=_ORACLE_MODES)
    target = _require_valid(dis).bound
    box = 1
    for axis in Axis:
        cs = [axis.coord(v) for v in dis.region.vertices]
        box *= floor(n * max(cs)) - ceil(n * min(cs)) + 1
    if box > _cell_cap():
        raise SizeGuardrail(f"scale n = {n}: the scaled region's bounding box holds "
                            f"{box} integer points, more than the cell cap; "
                            "set SESHADRI_MAX_CELLS")
    remaining = scaled_points(dis.region, n)
    pieces: List[Tuple[int, str, LatticeSet]] = []
    for i, step in enumerate(dis.steps, start=1):
        mine, remaining = split_by_affine(remaining, step.cut, n)
        pieces.append((i, "dim-minus-one", mine))
    pieces.append((dis.r, "final", remaining))

    rows: List[PolygonWitness] = []
    for idx, role, pts in pieces:
        if len(pts) == 0:
            raise EmptyPolygonAtScale(f"P{idx} holds no lattice points at scale {n}")
        best_m, best_profile = 0, None
        for d in (Direction.VERTICAL, Direction.HORIZONTAL):
            profile = column_profile(pts, d)
            m_d = max_parallel_witness(profile)
            if m_d > best_m:
                best_m, best_profile = m_d, profile
        if best_m == 0:
            raise EmptyPolygonAtScale(f"P{idx} hosts no witness at scale {n}")
        witness = _witness_from_profile(pts, best_profile, best_m)
        verdict = None
        if oracle_mode == "exact":
            verdict = system_dimension_exact(witness.subset, (best_m,),
                                             seed=seed + idx)
        elif oracle_mode == "modular":
            verdict = system_dimension_modp(witness.subset, (best_m,),
                                            seed=seed + idx)
        padding = None
        if role == "final":
            padding = (witness.subset.issubset(pts)
                       and expected_dimension((best_m,), count=len(pts)) >= 0)
        deviation = (abs(Fraction(best_m) - n * target) / (n * target)
                     if target > 0 else Fraction(0))
        rows.append(PolygonWitness(idx, role, len(pts), best_m, witness,
                                   deviation, padding, verdict))
    min_ratio = Fraction(min(r.m for r in rows), n)
    return FiniteCertificate(dis.name, n, n, oracle_mode, seed,
                             tuple(rows), min_ratio)


# --- file formats -------------------------------------------------------------

def dissection_to_json(dis: Dissection) -> dict:
    return {"name": dis.name,
            "region": dis.region.to_json(),
            "steps": [{"polygon": s.peeled.to_json(), "cut": s.cut.to_json()}
                      for s in dis.steps],
            "final": dis.final.to_json()}


def dissection_from_json(data: dict) -> Dissection:
    name = field("name", data["name"], str)
    polygon = ConvexPolygon.from_json
    steps = tuple(CutStep(parsed(f"step {i} cut", AffineForm.from_json, s["cut"]),
                          parsed(f"step {i} polygon", polygon, s["polygon"]))
                  for i, s in enumerate(data["steps"], start=1))
    return Dissection(name, parsed("region", polygon, data["region"]), steps,
                      parsed("final", polygon, data["final"]))


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
            if len(widths) == 1 and set(map(type, chain.from_iterable(o))) == {int}:
                # Equal-length int rows: one %-template per row; exact
                # ints only, so a bool never prints as 1.
                cell = "," + inner + "  "
                row = "[" + inner + "  " + cell.join(["%d"] * widths.pop()) + inner + "]"
                out("[" + inner + ("," + inner).join(map(row.__mod__, map(tuple, o)))
                    + nl + "]")
                return
        sep = "[" + inner
        for item in o:
            out(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out(nl + "]")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
