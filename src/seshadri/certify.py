"""Finite-scale certificates for multi-point Seshadri lower bounds.

A valid dissection (:mod:`seshadri.dissection`) is instantiated at scale
n: the integer points of each scaled piece host a parallel-lines witness
whose non-specialty the rank oracle can confirm independently.  The
certificate records the witnesses and the statement they prove, and its
loader re-derives every verdict.

Its records are ``typing.NamedTuple``s, as in :mod:`seshadri.geometry`, that
trust their fields; ``from_json`` checks them.  ``_replace`` changes a field.
A value the fields fix, such as a row's ``m`` or the ``min_ratio``, is a
property, so a record cannot contradict itself, and the writer and the loader
read it through one formula.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import __about__
from ._input import _ORACLE_MODES, field, parsed, rational
from .dissection import Dissection, _require_valid
# Kept only for perfbench, which calls these as ``certify.X`` or rebinds
# them here to trace them: AsymptoticReport, InvalidDissection,
# builtin_dissection_eckl10, certified_bound, dissection_from_json,
# dissection_to_json, dump_json, validate_dissection, verify_asymptotic,
# height_profile, x_projection, monotone_reorder, sup_admissible and
# select_witness_subset, which nothing here calls.  Item 21 of ROADMAP.md
# retires them.
from .dissection import (AsymptoticReport, InvalidDissection,
                         builtin_dissection_eckl10, certified_bound,
                         dissection_from_json, dissection_to_json, dump_json,
                         validate_dissection, verify_asymptotic)
from .geometry import height_profile, x_projection
from .lattice import (Direction, LatticeSet, WitnessSelection, _witness_from_profile,
                      column_profile, expected_dimension, max_parallel_witness,
                      scaled_points, select_witness_subset, split_by_affine)
from .oracle import (OracleVerdict, _staircase_verdict, system_dimension_exact,
                     system_dimension_modp)
from .reorder import monotone_reorder, sup_admissible


class EmptyPolygonAtScale(ValueError):
    """Some piece contains no lattice points at the requested scale."""


class PolygonWitness(NamedTuple):
    """Scale-n record for one piece: its lattice set size and witness."""

    polygon: int
    lattice_count: int
    witness: WitnessSelection
    oracle: Optional[OracleVerdict] = None

    @property
    def m(self) -> int:
        """The witness's size."""
        return self.witness.m

    def to_json(self) -> dict:
        polygon, lattice_count, witness, oracle = self
        return {"polygon": polygon, "lattice_count": lattice_count,
                "m": witness.m, "witness": witness.to_json(),
                "oracle": oracle.to_json() if oracle else None}

    @classmethod
    def from_json(cls, data: dict) -> "PolygonWitness":
        """The row ``data``, refused unless it states every key, its ``m``
        is its witness's m and its ``lattice_count`` covers the witness's
        m(m+1)/2 points; only a null ``oracle`` means no verdict."""
        data = field("per_polygon row", data, dict)
        polygon = field("polygon", data["polygon"], int)
        count = field("lattice_count", data["lattice_count"], int)
        m = field("m", data["m"], int)
        row = cls(polygon, count, WitnessSelection.from_json(data["witness"]),
                  None if data["oracle"] is None else OracleVerdict.from_json(data["oracle"]))
        w = row.m
        if m != w:
            raise ValueError(f"polygon {polygon}: m {m} is not its witness's m {w}")
        if count < w * (w + 1) // 2:
            raise ValueError(f"polygon {polygon}: lattice_count {count} "
                             f"is below the {w * (w + 1) // 2} points of its witness")
        return row


class FiniteCertificate(NamedTuple):
    """Machine-checkable record of a scale-n reduction run; its file also
    states the degree, which is the scale, and the ``tool_version``."""

    dissection: str
    scale: int
    oracle_mode: str
    seed: int
    per_polygon: Tuple[PolygonWitness, ...]

    tool_version = __about__.__version__  # the one version ``from_json`` accepts

    @property
    def min_ratio(self) -> Fraction:
        """The least row m over the scale."""
        return Fraction(min(row.m for row in self.per_polygon), self.scale)

    @property
    def statement(self) -> str:
        """The claim the witnesses prove; :func:`finite_certificate` states why."""
        ms = [p.m for p in self.per_polygon]
        n = self.scale
        dim = expected_dimension(ms, count=(n + 1) * (n + 2) // 2)
        return (f"the degree-{n} plane system with multiplicities "
                f"({', '.join(map(str, ms))}) at {len(ms)} very general points is "
                f"non-special of dimension {dim}")

    def to_json(self) -> dict:
        dissection, scale, oracle_mode, seed, per_polygon = self
        return {"dissection": dissection, "scale": scale, "oracle_mode": oracle_mode,
                "seed": seed, "degree": scale, "min_ratio": str(self.min_ratio),
                "tool_version": self.tool_version, "statement": self.statement,
                "per_polygon": [p.to_json() for p in per_polygon]}

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
        field("tool_version", data["tool_version"], str, choices=(cls.tool_version,))
        dissection = field("dissection", data["dissection"], str)
        n = field("scale", data["scale"], int)
        degree = field("degree", data["degree"], int)
        cert = cls(dissection, n,
                   field("oracle_mode", data["oracle_mode"], str, choices=_ORACLE_MODES),
                   field("seed", data["seed"], int),
                   tuple(PolygonWitness.from_json(p)
                         for p in field("per_polygon", data["per_polygon"], list)))
        min_ratio = parsed("min_ratio", rational, data["min_ratio"])
        if n < 1:
            raise ValueError(f"scale {n} is not positive")
        if degree != n:
            raise ValueError(f"degree {degree} is not the scale {n}")
        if not cert.per_polygon:
            raise ValueError("per_polygon is empty")
        total = sum(row.lattice_count for row in cert.per_polygon)
        if total != (n + 1) * (n + 2) // 2:
            raise ValueError(f"lattice_count sum {total} is not the "
                             f"{(n + 1) * (n + 2) // 2} monomials of degree {n}")
        if min_ratio != cert.min_ratio:
            raise ValueError(f"min_ratio {min_ratio} is not the least row m over "
                             f"the scale, {cert.min_ratio}")
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
    field("seed", seed, int)
    _require_valid(dis)
    remaining = scaled_points(n)
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
        rows.append(PolygonWitness(idx, len(pts), witness, verdict))
    return FiniteCertificate(dis.name, n, oracle_mode, seed, tuple(rows))

