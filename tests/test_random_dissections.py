"""A second corpus: seeded random dissections of the simplex.

Every other pipeline test runs on eckl10, its tampered copies or the
diagonal sliver.  Random dissections have pieces that hold no lattice
point at small scales, and witnesses whose point-free matrix has an even
determinant, which the staircase identity decides as it does the odd
ones, in both modes alike.  At the smallest scales some witnesses use
every monomial, and the statement's dimension is -1.

The statement is also proved by a second route here, on this corpus and
on eckl10: the condition matrix of all r points on the union of the
witnesses has full rank, with no appeal to Dumnicki's lemma or reduction.
"""

import dataclasses
import json
import random

import pytest

from seshadri.certify import EmptyPolygonAtScale, FiniteCertificate, finite_certificate
from seshadri.dissection import (builtin_dissection_eckl10, certified_bound,
                                 dissection_from_json, dissection_to_json, dump_json,
                                 validate_dissection)
from seshadri.lattice import LatticeSet
from seshadri.oracle import _condition_rows, _distinct_pairs, _rank

from conftest import random_dissection
from fraction_reference import _gf2_rank, _lucas_rows

SEEDS = range(60)
SCALES = (13, 26)
PRIME = 65521


@pytest.fixture(scope="module")
def corpus():
    return [random_dissection(random.Random(seed), f"random-{seed}") for seed in SEEDS]


def test_round_trip_validates_with_the_same_bound(corpus):
    assert {dis.r for dis in corpus} <= set(range(2, 11))
    for dis in corpus:
        copy = dissection_from_json(json.loads(dump_json(dissection_to_json(dis))))
        assert copy == dis
        assert validate_dissection(copy).ok
        assert certified_bound(copy) == certified_bound(dis)


def test_verdicts_differ_between_modes_only_in_method(corpus):
    certified = even = 0
    for dis in corpus:
        for n in SCALES:
            try:
                modular = finite_certificate(dis, n, "modular")
            except EmptyPolygonAtScale:
                with pytest.raises(EmptyPolygonAtScale):
                    finite_certificate(dis, n, "exact")
                continue
            exact = finite_certificate(dis, n, "exact")
            certified += 1
            for mod, ex in zip(modular.per_polygon, exact.per_polygon, strict=True):
                assert mod.witness == ex.witness
                assert dataclasses.replace(mod.oracle, method="exact-rational") == ex.oracle
                assert ex.oracle.non_special and ex.oracle.prime is None
                D = mod.witness.subset
                even += _gf2_rank(_lucas_rows(D, mod.m)) < len(D)
    # 71 of the 120 (dissection, scale) pairs certify, and 22 witnesses
    # have an even determinant: their rank mod 2 falls short
    assert certified > 50 and even > 10


def test_witness_points_are_monomials_of_degree_n(corpus):
    """Every witness point (alpha, beta) of every certificate has
    alpha + beta <= n: it is an exponent of a degree-n monomial."""
    certified = 0
    for dis in corpus:
        for n in SCALES:
            try:
                cert = finite_certificate(dis, n, "none")
            except EmptyPolygonAtScale:
                continue
            certified += 1
            for row in cert.per_polygon:
                assert all(a + b <= n for a, b in row.witness.subset)
    assert certified > 50


def test_statement_is_minus_one_when_the_witnesses_use_every_monomial(corpus):
    """Every certificate loads, so its witnesses use at most the
    (n+1)(n+2)/2 monomials; where they use all of them, it states dimension
    -1.  Two corpus certificates at n = 1 do."""
    full = 0
    for dis in corpus:
        for n in (1, 2, 3):
            try:
                cert = finite_certificate(dis, n, "none")
            except EmptyPolygonAtScale:
                continue
            assert FiniteCertificate.from_json(cert.to_json()) == cert
            used = sum(row.m * (row.m + 1) // 2 for row in cert.per_polygon)
            if used == (n + 1) * (n + 2) // 2:
                full += 1
                assert cert.statement.endswith(" is non-special of dimension -1")
    assert full >= 1


@pytest.mark.parametrize("mode", ["none", "modular"])
def test_every_certificate_at_13_reloads_equal_to_itself(corpus, mode):
    """Each piece's lattice set is its share of the degree-13 monomials, so
    the loader's count of them holds on every certificate written."""
    certified = 0
    for dis in corpus:
        try:
            cert = finite_certificate(dis, 13, mode)
        except EmptyPolygonAtScale:
            continue
        certified += 1
        assert FiniteCertificate.from_json(json.loads(dump_json(cert.to_json()))) == cert
    assert certified == 32


def test_the_union_of_the_witnesses_has_full_rank(corpus):
    """The r-point condition matrix on the union W of the witnesses, at
    seeded integer points mod 65521, is square of full rank: so
    L_W(m_1, ..., m_r) has dimension -1 at those points, hence at very
    general points, and the statement follows as W lies in n times the
    simplex.  No stored verdict is read."""
    certs = [finite_certificate(builtin_dissection_eckl10(), 13, "none")]
    for dis in corpus:
        try:
            certs.append(finite_certificate(dis, 13, "none"))
        except EmptyPolygonAtScale:
            pass
    assert len(certs) == 33
    for seed, cert in enumerate(certs):
        W = LatticeSet([p for row in cert.per_polygon for p in row.witness.subset])
        ms = tuple(row.m for row in cert.per_polygon)
        rows = _condition_rows(W, _distinct_pairs(len(ms), seed, PRIME - 1), ms, PRIME)
        assert len(rows) == len(W) == _rank(rows, PRIME)
