"""The point-free one-point oracle and the modulus check of the modular path.

One-point systems are ranked through the binomial matrix C(alpha,a)*C(beta,b)
instead of a sampled point; these tests reach the same ranks by other
routes (explicit points, translation, transposition, the other field),
check each verdict a certificate shares between witnesses of one size
against a fresh rank of the row's own witness, count one oracle call per
witness size, check that a piece with no point is refused before any
witness is ranked, and pin the primality check that guards every modular
verdict.
"""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from seshadri import certify
from seshadri.certify import EmptyPolygonAtScale, finite_certificate
from seshadri.dissection import builtin_dissection_eckl10
from seshadri.lattice import LatticeSet
from seshadri.oracle import (MODULUS_LIMIT, BadModulus, GenericPointSet,
                             fraction_free_rank, interpolation_matrix, is_prime,
                             system_dimension_exact, system_dimension_modp)

from conftest import random_dissection

BUILTIN = builtin_dissection_eckl10()
DEG2 = LatticeSet(((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
# points with xy != 0, including (1, 1) and negative coordinates
TORUS_POINTS = [(1, 1), (-2, 3), (F(1, 3), F(-5, 7)), (F(-7, 2), F(-2, 9))]


def small_systems(count=200, seed=2024):
    """Seeded small one-point systems (D, m), some away from both axes."""
    rng = random.Random(seed)
    systems = []
    while len(systems) < count:
        s, t = rng.randint(0, 3), rng.randint(0, 3)
        D = LatticeSet(tuple((s + rng.randint(0, 5), t + rng.randint(0, 5))
                             for _ in range(rng.randint(1, 12))))
        systems.append((D, rng.randint(1, 4)))
    return systems


SYSTEMS = small_systems()


class TestPointFreeRank:
    def test_rank_equals_rank_at_explicit_points(self):
        for D, m in SYSTEMS:
            verdict = system_dimension_exact(D, (m,))
            for pt in TORUS_POINTS:
                points = GenericPointSet.explicit([pt])
                assert fraction_free_rank(interpolation_matrix(D, points, (m,))) \
                    == verdict.rank, (D, m, pt)

    def test_translation_leaves_verdict_unchanged(self):
        """A shift, and a swap of the two coordinates of every point, give
        the verdict of the system itself."""
        rng = random.Random(7)
        kinds = Counter()
        for D, m in SYSTEMS:
            s, t = rng.randint(0, 9), rng.randint(0, 9)
            moved = LatticeSet(tuple((a + s, b + t) for a, b in D))
            swapped = LatticeSet(tuple((b, a) for a, b in D))
            for oracle in (system_dimension_exact, system_dimension_modp):
                verdict = oracle(D, (m,))
                assert oracle(moved, (m,)) == verdict, (D, m, s, t)
                assert oracle(swapped, (m,)) == verdict, (D, m)
                kinds[verdict.method, verdict.prime == 2, verdict.non_special] += 1
        # special systems, and ranks mod 2 short of full in both modes
        assert kinds["exact-rational", False, False] and kinds["modular", False, False]
        assert kinds["exact-rational", False, True] and kinds["modular", False, True]

    def test_modular_agrees_with_exact(self):
        specials = 0
        for D, m in SYSTEMS:
            exact = system_dimension_exact(D, (m,))
            modular = system_dimension_modp(D, (m,))
            assert (modular.rank, modular.actual_dimension, modular.non_special) \
                == (exact.rank, exact.actual_dimension, exact.non_special)
            specials += not exact.non_special
        assert 0 < specials < len(SYSTEMS)  # both verdicts are exercised

    def test_seed_is_ignored_and_null(self):
        # DEG2 with multiplicity 3 is a staircase, with multiplicity 2 not;
        # the exact mode takes no seed
        for m, route in ((3, "staircase:"), (2, "point-free:")):
            a, b = (system_dimension_modp(DEG2, (m,), seed=seed) for seed in (0, 99))
            assert a == b
            for v in (a, system_dimension_exact(DEG2, (m,))):
                assert v.seed is None and v.to_json()["seed"] is None
                assert v.caveat.startswith(route)

    def test_multi_point_systems_keep_their_seed(self):
        assert system_dimension_modp(DEG2, (1, 1), seed=5).seed == 5
        # the exact mode ranks only at stated points, which no seed draws
        points = GenericPointSet(((1, 2), (3, 4)))
        assert system_dimension_exact(DEG2, (1, 1), points).seed is None


@pytest.mark.parametrize("mode,n", [("exact", 13), ("exact", 26),
                                    ("modular", 13), ("modular", 26),
                                    ("modular", 39), ("modular", 52),
                                    ("modular", 65)])
def test_eckl10_witnesses_full_rank(mode, n):
    cert = finite_certificate(BUILTIN, n, oracle_mode=mode, seed=3)
    for row in cert.per_polygon:
        v = row.oracle
        assert v.rank == len(row.witness.subset) == row.m * (row.m + 1) // 2
        assert v.non_special and v.actual_dimension == -1
        assert v.seed is None


FRESH = {"modular": system_dimension_modp, "exact": system_dimension_exact}


@pytest.mark.parametrize("mode", sorted(FRESH))
def test_shared_verdicts_match_a_fresh_rank(mode):
    """Witnesses with equal runs up to a shift share one verdict; each
    row's must be the one its own witness gets, ranked afresh."""
    cases = [(BUILTIN, n) for n in (13, 26, 52)] + [
        (random_dissection(random.Random(seed), f"random-{seed}"), n)
        for seed in range(60) for n in (13, 26)]
    rows = 0
    for dis, n in cases:
        try:
            cert = finite_certificate(dis, n, oracle_mode=mode)
        except EmptyPolygonAtScale:
            continue
        for row in cert.per_polygon:
            assert row.oracle == FRESH[mode](row.witness.subset, (row.m,)), \
                (dis.name, n, row.polygon)
            rows += 1
    assert rows > 300  # 344 rows, the rest meet an empty piece


@pytest.mark.parametrize("mode", sorted(FRESH))
def test_empty_piece_refused_before_any_rank(mode, monkeypatch):
    """Seed 0 of the corpus at n = 13 splits into pieces of 95, 1, 0, 8,
    1 and 0 points: the refusal names P3, and neither P1's nor P2's
    witness reaches the oracle."""
    def refuse(*_args):
        raise AssertionError("a witness was ranked")
    monkeypatch.setattr(certify, FRESH[mode].__name__, refuse)
    dis = random_dissection(random.Random(0), "random-0")
    with pytest.raises(EmptyPolygonAtScale, match="^P3 holds no lattice points at scale 13$"):
        finite_certificate(dis, 13, oracle_mode=mode)


def _count_oracle_calls(mode, monkeypatch):
    """The list of sets that ``certify``'s oracle of ``mode`` is asked about."""
    name = FRESH[mode].__name__
    ranked = []

    def counted(D, spec):
        ranked.append(D)
        return FRESH[mode](D, spec)

    monkeypatch.setattr(certify, name, counted)
    return ranked


@pytest.mark.parametrize("mode", sorted(FRESH))
@pytest.mark.parametrize("n", [13, 26, 52, 104])
def test_eckl10_ranks_one_witness_per_size(mode, n, monkeypatch):
    """A witness's verdict is a function of its size, and eckl10's ten
    pieces have witnesses of two sizes: two oracle calls."""
    ranked = _count_oracle_calls(mode, monkeypatch)
    cert = finite_certificate(BUILTIN, n, oracle_mode=mode)
    assert len(cert.per_polygon) == 10 and len(ranked) == 2
    assert len({row.m for row in cert.per_polygon}) == 2


@pytest.mark.parametrize("mode", sorted(FRESH))
def test_corpus_ranks_one_witness_per_size(mode, monkeypatch):
    """On the random corpus, a certificate makes as many oracle calls as
    its witnesses have distinct sizes."""
    ranked = _count_oracle_calls(mode, monkeypatch)
    certs = shared = 0
    for seed in range(60):
        dis = random_dissection(random.Random(seed), f"random-{seed}")
        for n in (13, 26):
            ranked.clear()
            try:
                cert = finite_certificate(dis, n, oracle_mode=mode)
            except EmptyPolygonAtScale:
                continue
            sizes = [row.m for row in cert.per_polygon]
            assert len(ranked) == len(set(sizes)), (dis.name, n)
            assert [len(D) for D in ranked] == [m * (m + 1) // 2 for m in dict.fromkeys(sizes)]
            certs += 1
            shared += len(ranked) < len(sizes)
    assert certs > 50 and shared > 20  # 71 certificates, 31 with a size twice


class TestModulus:
    @pytest.mark.parametrize("modulus", [15, 21, 33, 35, 561, 3215031751])
    def test_composites_refused(self, modulus):
        assert not is_prime(modulus)
        with pytest.raises(BadModulus, match=str(modulus)):
            system_dimension_modp(DEG2, (2, 2), seed=1, prime=modulus)
        with pytest.raises(BadModulus, match=str(modulus)):
            system_dimension_modp(DEG2, (3,), prime=modulus)

    @pytest.mark.parametrize("modulus", [97, 2**61 - 1])
    def test_primes_accepted(self, modulus):
        assert system_dimension_modp(DEG2, (3,), prime=modulus).non_special

    def test_prime_beyond_kernel_limit_refused(self):
        modulus = 2**64 - 59
        assert is_prime(modulus) and modulus >= MODULUS_LIMIT
        with pytest.raises(BadModulus, match=str(modulus)):
            system_dimension_modp(DEG2, (3,), prime=modulus)

    def test_composite_refused_on_every_call(self):
        # is_prime keeps its last answers: a prime proved just before must
        # not let a composite through, and a refusal is not forgotten
        for modulus in (97, 561, 97, 561, 561, 2**61 - 1, 3215031751):
            if is_prime(modulus):
                assert system_dimension_modp(DEG2, (3,), prime=modulus).non_special
            else:
                with pytest.raises(BadModulus, match=f"modulus {modulus} is not prime"):
                    system_dimension_modp(DEG2, (3,), prime=modulus)

    def test_miller_rabin_matches_sieve(self):
        limit = 10**4
        sieve = [False, False] + [True] * (limit - 2)
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i::i] = [False] * len(sieve[i * i::i])
        assert [is_prime(k) for k in range(limit)] == sieve

    def test_unproven_range_refused(self):
        with pytest.raises(ValueError):
            is_prime(10**24 + 7)
