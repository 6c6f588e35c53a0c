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
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import __about__
from ._input import field, parsed, rational
# select_witness_subset, sup_admissible and x_projection are not called
# here but stay module attributes, like every lattice, geometry and
# rearrangement step, so that tracing can rebind them.
from .geometry import (AffineForm, Axis, ConvexPolygon, Point, cut_polygon,
                       height_profile, point, x_projection)
from .lattice import (Direction, LatticeSet, WitnessSelection, _witness_from_profile,
                      column_profile, max_parallel_witness, scaled_points,
                      select_witness_subset, split_by_affine)
from .oracle import (OracleVerdict, _staircase_verdict, system_dimension_exact,
                     system_dimension_modp)
from .reorder import (PiecewiseLinear, _first_crossing, monotone_reorder,
                      sup_admissible)


_ORACLE_MODES = ("none", "modular", "exact")

# every dissection peels the standard simplex, whose scaled integer points
# are the exponents of the degree-n monomials
SIMPLEX = ConvexPolygon.from_json([[0, 0], [1, 0], [0, 1]])


class InvalidDissection(ValueError):
    """Dissection fails its structural validation."""


class EmptyPolygonAtScale(ValueError):
    """Some piece contains no lattice points at the requested scale."""


@dataclass(frozen=True)
class CutStep:
    """One peeling step: the cut and the piece on its negative side.

    The cut must be negative on the peeled piece's interior and
    nonnegative on everything peeled later (see :func:`finite_certificate`).
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


# --- finite certificates -----------------------------------------------------

@dataclass(frozen=True)
class PolygonWitness:
    """Scale-n record for one piece: its lattice set size and witness."""

    polygon: int
    lattice_count: int
    m: int
    witness: WitnessSelection
    oracle: Optional[OracleVerdict] = None

    def to_json(self) -> dict:
        return {"polygon": self.polygon, "lattice_count": self.lattice_count,
                "m": self.m, "witness": self.witness.to_json(),
                "oracle": self.oracle.to_json() if self.oracle else None}

    @classmethod
    def from_json(cls, data: dict) -> "PolygonWitness":
        """The row ``data``, refused unless it states every key, its ``m``
        is its witness's m and its ``lattice_count`` covers the witness's
        m(m+1)/2 points; only a null ``oracle`` means no verdict."""
        data = field("per_polygon row", data, dict)
        row = cls(field("polygon", data["polygon"], int),
                  field("lattice_count", data["lattice_count"], int),
                  field("m", data["m"], int), WitnessSelection.from_json(data["witness"]),
                  None if data["oracle"] is None else OracleVerdict.from_json(data["oracle"]))
        w = row.witness.m
        if row.m != w:
            raise ValueError(f"polygon {row.polygon}: m {row.m} is not its witness's m {w}")
        if row.lattice_count < w * (w + 1) // 2:
            raise ValueError(f"polygon {row.polygon}: lattice_count {row.lattice_count} "
                             f"is below the {w * (w + 1) // 2} points of its witness")
        return row


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
        """The claim the witnesses prove; :func:`finite_certificate` states why."""
        ms = [p.m for p in self.per_polygon]
        n = self.degree
        dim = (n + 1) * (n + 2) // 2 - 1 - sum(m * (m + 1) // 2 for m in ms)
        return (f"the degree-{n} plane system with multiplicities "
                f"({', '.join(map(str, ms))}) at {len(ms)} very general points is "
                f"non-special of dimension {dim}")

    def to_json(self) -> dict:
        return {"tool_version": self.tool_version, "dissection": self.dissection,
                "scale": self.scale, "degree": self.degree,
                "oracle_mode": self.oracle_mode, "seed": self.seed,
                "min_ratio": str(self.min_ratio),
                "statement": self.statement,
                "per_polygon": [p.to_json() for p in self.per_polygon]}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteCertificate":
        """The certificate ``data``, refused unless its ``tool_version`` is
        the package's, and where it contradicts itself: a scale below 1, a
        degree other than the scale, no rows, ``lattice_count``s that do
        not sum to the (n+1)(n+2)/2 monomials, a ``min_ratio`` other than
        the least row m over the scale, a row whose polygon is not its
        place, or whose verdict is not the one its ``oracle_mode`` gives
        its witness, or a ``statement`` other than its rows'.  Every
        witness is a staircase, so its verdict is re-derived from its m
        alone (``seshadri.oracle._staircase_verdict``), and a refusal
        names the first field that differs."""
        data = field("certificate", data, dict)
        version = field("tool_version", data["tool_version"], str,
                        choices=(__about__.__version__,))
        cert = cls(field("dissection", data["dissection"], str),
                   field("scale", data["scale"], int), field("degree", data["degree"], int),
                   field("oracle_mode", data["oracle_mode"], str, choices=_ORACLE_MODES),
                   field("seed", data["seed"], int),
                   tuple(PolygonWitness.from_json(p)
                         for p in field("per_polygon", data["per_polygon"], list)),
                   parsed("min_ratio", rational, data["min_ratio"]), version)
        n = cert.scale
        if n < 1:
            raise ValueError(f"scale {n} is not positive")
        if cert.degree != n:
            raise ValueError(f"degree {cert.degree} is not the scale {n}")
        if not cert.per_polygon:
            raise ValueError("per_polygon is empty")
        total = sum(row.lattice_count for row in cert.per_polygon)
        if total != (n + 1) * (n + 2) // 2:
            raise ValueError(f"lattice_count sum {total} is not the "
                             f"{(n + 1) * (n + 2) // 2} monomials of degree {n}")
        least = Fraction(min(row.m for row in cert.per_polygon), n)
        if cert.min_ratio != least:
            raise ValueError(f"min_ratio {cert.min_ratio} is not the least row m over "
                             f"the scale, {least}")
        method = {"modular": "modular", "exact": "exact-rational"}.get(cert.oracle_mode)
        for i, row in enumerate(cert.per_polygon, start=1):
            v = row.oracle
            checks = [("polygon", row.polygon, i), ("oracle method", v and v.method, method)]
            if v and method:
                want = _staircase_verdict(row.m, method).to_json()
                checks += [(f"oracle {key}", got, want[key])
                           for key, got in v.to_json().items()]
            for name, got, want in checks:
                if got != want:
                    raise ValueError(f"row {i}: {name} {got} is not {want}")
        stated = field("statement", data["statement"], str)
        if stated != cert.statement:
            raise ValueError(f"statement {stated!r} is not its rows', {cert.statement!r}")
        return cert


def finite_certificate(dis: Dissection, n: int, oracle_mode: str = "none",
                       seed: int = 0) -> FiniteCertificate:
    """Instantiate the dissection at scale n and certify every piece.

    The integer points of n times the simplex are consumed cut by cut (ties
    stay with the remainder); each piece gets its best parallel-lines
    witness W_i, of size m_i, over both directions, and optionally an
    oracle verdict on the one-point system L_{W_i}(m_i) of polynomials
    supported on W_i.  The witnesses prove ``statement``:

    1. W_i is m_i parallel lines carrying 1, ..., m_i points, so
       L_{W_i}(m_i) is non-special of dimension -1 (Dumnicki's
       parallel-lines lemma).  A verdict states it without building a
       matrix: the determinant of W_i's point-free matrix is a product of
       nonzero Vandermonde quotients (the ``seshadri.oracle`` docstring).
       So the verdict is a function of m_i alone: the oracle is asked
       once per size, and witnesses of one size share its verdict.
    2. If a line splits D into D_1 and D_2, L_{D_1}(m_1, ..., m_k) is
       non-special of dimension -1 and L_{D_2}(m_{k+1}, ..., m_r) is
       non-special, then L_D(m_1, ..., m_r) is non-special (Dumnicki's
       reduction; either side may carry the dimension -1 part).  Cut i
       has W_i on its negative side and W_{i+1}, ..., W_r on its
       nonnegative side, so r - 1 reductions make the system on the union
       W of the witnesses non-special of dimension -1: its square
       condition matrix is nonsingular at very general points.
    3. W lies in n times the simplex, so those conditions stay independent
       on all N = (n+1)(n+2)/2 monomials of degree n: L_n(m_1, ..., m_r)
       is non-special of dimension N - 1 - sum of m_i(m_i+1)/2, which is
       -1 exactly when W holds every monomial.  No piece size enters.

    A scale at which the scaled simplex's bounding box holds more integer
    points than the cell cap raises SizeGuardrail, from
    :func:`scaled_points`, before any point is enumerated; one at which a
    piece holds no point raises EmptyPolygonAtScale, naming the first such
    piece, before any witness is chosen or ranked.  ``seed`` is
    recorded in the certificate and reaches no verdict: every witness is a
    one-point system, ranked point-free.
    """
    if field("n", n, int) < 1:
        raise ValueError("scale must be a positive integer")
    field("oracle_mode", oracle_mode, str, choices=_ORACLE_MODES)
    _require_valid(dis)
    remaining = scaled_points(SIMPLEX, n)
    pieces: List[LatticeSet] = []
    for step in dis.steps:
        mine, remaining = split_by_affine(remaining, step.cut, n)
        pieces.append(mine)
    pieces.append(remaining)
    for idx, pts in enumerate(pieces, start=1):  # before any witness is ranked
        if len(pts) == 0:
            raise EmptyPolygonAtScale(f"P{idx} holds no lattice points at scale {n}")

    rows: List[PolygonWitness] = []
    verdicts: Dict[int, OracleVerdict] = {}  # witness size: its verdict
    for idx, pts in enumerate(pieces, start=1):
        best_m, best_profile = 0, None
        for d in (Direction.VERTICAL, Direction.HORIZONTAL):
            profile = column_profile(pts, d)
            m_d = max_parallel_witness(profile)
            if m_d > best_m:
                best_m, best_profile = m_d, profile
        witness = _witness_from_profile(pts, best_profile, best_m)
        verdict = None
        if oracle_mode != "none":
            verdict = verdicts.get(best_m)
            if verdict is None:
                oracle = (system_dimension_exact if oracle_mode == "exact"
                          else system_dimension_modp)
                verdict = verdicts[best_m] = oracle(witness.subset, (best_m,))
        rows.append(PolygonWitness(idx, len(pts), best_m, witness, verdict))
    min_ratio = Fraction(min(r.m for r in rows), n)
    return FiniteCertificate(dis.name, n, n, oracle_mode, seed,
                             tuple(rows), min_ratio)


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
