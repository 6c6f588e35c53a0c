"""Unit and cross-validation tests for the interpolation-rank oracle."""

import random
from fractions import Fraction as F
import pytest

from seshadri._kernels import pyref
from seshadri.geometry import make_polygon
from seshadri.lattice import (Direction, LatticeSet, column_profile,
                              max_parallel_witness, scaled_points,
                              select_witness_subset)
from seshadri.oracle import (ArityMismatch, BadModulus, GenericPointSet,
                             PrimeTooSmall, SizeGuardrail, MODULAR_DEFAULT_PRIME,
                             fraction_free_rank, interpolation_matrix,
                             monomials_up_to, points_on_curve,
                             system_dimension_exact, system_dimension_modp)

DEG2 = LatticeSet(((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
COLLINEAR = LatticeSet(((0, 0), (1, 0), (2, 0)))


class TestInterpolationMatrix:
    def test_single_constant(self):
        mat = interpolation_matrix(LatticeSet(((0, 0),)),
                                   GenericPointSet.seeded(1, 0), (1,))
        assert mat == [[1]]

    def test_shape_six_by_six(self):
        mat = interpolation_matrix(DEG2, GenericPointSet.seeded(1, 0), (3,))
        assert len(mat) == 6 and len(mat[0]) == 6

    def test_collinear_exponents_rank_two(self):
        mat = interpolation_matrix(COLLINEAR, GenericPointSet.seeded(1, 0), (2,))
        assert len(mat) == 3
        # the y-derivative row vanishes identically on beta = 0 exponents
        assert any(all(e == 0 for e in row) for row in mat)
        assert fraction_free_rank(mat) == 2

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            interpolation_matrix(DEG2, GenericPointSet.seeded(2, 0), (3,))


class TestFractionFreeRank:
    def test_known_ranks(self):
        ident = [[F(int(i == j)) for j in range(4)] for i in range(4)]
        assert fraction_free_rank(ident) == 4
        ones = [[F(1)] * 3 for _ in range(3)]
        assert fraction_free_rank(ones) == 1
        assert fraction_free_rank([[F(0)] * 3 for _ in range(2)]) == 0
        assert fraction_free_rank([]) == 0

    def test_rational_entries(self):
        mat = [[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]]  # proportional rows
        assert fraction_free_rank(mat) == 1

    def test_matches_modular_on_random_integer_matrices(self):
        rng = random.Random(3)
        for _ in range(40):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            exact = fraction_free_rank([[F(e) for e in row] for row in mat])
            assert pyref.modrank(mat, MODULAR_DEFAULT_PRIME) == exact


class TestExactOracle:
    def test_simplex_monomials_triple_point(self):
        v = system_dimension_exact(DEG2, (3,), seed=0)
        assert v.actual_dimension == -1 and v.non_special
        assert v.method == "exact-rational"

    def test_collinear_exponents_special(self):
        v = system_dimension_exact(COLLINEAR, (2,), seed=0)
        assert v.expected_dimension == -1
        assert v.actual_dimension == 0
        assert not v.non_special

    def test_empty_spec(self):
        d = 3
        full = LatticeSet(tuple((i, j) for i in range(d + 1)
                                for j in range(d + 1 - i)))
        v = system_dimension_exact(full, (), seed=0)
        assert v.actual_dimension == d * (d + 3) // 2
        assert v.non_special

    def test_explicit_points_reject_floats(self):
        with pytest.raises(TypeError):
            GenericPointSet.explicit([(0.5, F(1, 3))])

    def test_explicit_points_deterministic(self):
        pts = GenericPointSet.explicit([(F(1, 3), F(2, 5)), (F(3, 7), F(1, 2))])
        v1 = system_dimension_exact(DEG2, (2, 1), points=pts)
        v2 = system_dimension_exact(DEG2, (2, 1), points=pts)
        assert v1 == v2

    def test_guardrail(self, monkeypatch):
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "10")
        with pytest.raises(SizeGuardrail):
            system_dimension_exact(DEG2, (3,), seed=0)
        v = system_dimension_exact(DEG2, (3,), seed=0, force=True)
        assert v.non_special
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "1000000")
        assert system_dimension_exact(DEG2, (3,), seed=0).non_special

    def test_actual_at_least_expected(self):
        rng = random.Random(5)
        for _ in range(40):
            pts = LatticeSet(tuple((rng.randint(0, 3), rng.randint(0, 3))
                                   for _ in range(rng.randint(1, 8))))
            if len(pts) == 0:
                continue
            ms = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
            v = system_dimension_exact(pts, ms, seed=17)
            assert v.actual_dimension >= v.expected_dimension >= -1


class TestModularOracle:
    def test_agrees_with_exact(self):
        rng = random.Random(7)
        for seed in range(30):
            pts = LatticeSet(tuple((rng.randint(0, 3), rng.randint(0, 3))
                                   for _ in range(rng.randint(2, 8))))
            if len(pts) == 0:
                continue
            ms = (rng.randint(1, 3),)
            exact = system_dimension_exact(pts, ms, seed=seed)
            modular = system_dimension_modp(pts, ms, seed=seed)
            assert modular.actual_dimension == exact.actual_dimension

    def test_seed_determinism(self):
        a = system_dimension_modp(DEG2, (3,), seed=42)
        b = system_dimension_modp(DEG2, (3,), seed=42)
        assert a == b
        c = system_dimension_modp(DEG2, (3,), seed=43)
        assert c.prime == a.prime

    def test_empty_spec_dimension(self):
        for seed in (0, 1, 2):
            v = system_dimension_modp(DEG2, (), seed=seed)
            assert v.actual_dimension == len(DEG2) - 1

    def test_prime_too_small(self):
        # the guard protects the derivative factors at random points; a
        # one-point system is ranked point-free and needs no such bound
        big = LatticeSet(((11, 0), (0, 11)))
        with pytest.raises(PrimeTooSmall):
            system_dimension_modp(big, (1, 1), seed=0, prime=11)
        verdict = system_dimension_modp(big, (1,), seed=0, prime=11)
        assert verdict.prime == 2 and verdict.non_special
        # a composite modulus is refused first, on either path
        for spec in ((1,), (1, 1)):
            with pytest.raises(BadModulus):
                system_dimension_modp(big, spec, seed=0, prime=9)

    def test_witness_from_scaled_triangle(self):
        gke = make_polygon([("5/13", 0), ("7/13", "6/13"), ("9/13", "4/13")])
        pts = scaled_points(gke, 26)
        m = max_parallel_witness(column_profile(pts, Direction.VERTICAL))
        assert m == 8
        w = select_witness_subset(pts, Direction.VERTICAL, 8)
        v = system_dimension_modp(w.subset, (8,), seed=0)
        assert v.actual_dimension == -1 and v.non_special


class TestCurveMembership:
    def test_monomial_count(self):
        assert len(monomials_up_to(1)) == 3
        assert len(monomials_up_to(2)) == 6

    def test_collinear_points_on_line(self):
        assert points_on_curve(COLLINEAR, 1)

    def test_triangle_not_on_line(self):
        assert not points_on_curve(LatticeSet(((0, 0), (1, 0), (0, 1))), 1)

    def test_equivalence_sample(self):
        # non-specialty of the one-point system of size binom(m+1, 2) matches
        # "exponents avoid every curve of degree m - 1"
        grid = [(i, j) for i in range(4) for j in range(4)]
        rng = random.Random(11)
        for _ in range(60):
            pts = LatticeSet(tuple(rng.sample(grid, 6)))
            v = system_dimension_exact(pts, (3,), seed=2)
            assert v.non_special == (not points_on_curve(pts, 2))


class TestWitnessSoundness:
    def test_small_sets_end_to_end(self):
        rng = random.Random(13)
        for _ in range(40):
            pts = LatticeSet(tuple((rng.randint(0, 4), rng.randint(0, 4))
                                   for _ in range(rng.randint(3, 15))))
            if len(pts) == 0:
                continue
            direction = rng.choice(list(Direction))
            m = max_parallel_witness(column_profile(pts, direction))
            if m == 0:
                continue
            w = select_witness_subset(pts, direction, m)
            v = system_dimension_exact(w.subset, (m,), seed=3)
            assert v.non_special and v.actual_dimension == -1


class TestKernels:
    def test_pyref_known(self):
        assert pyref.modrank([[1, 0], [0, 1]], 7) == 2
        assert pyref.modrank([[2, 4], [3, 6]], 101) == 1
        assert pyref.modrank([[7, 14]], 7) == 0  # vanishes mod 7

    def test_negative_entries_reduced(self):
        assert pyref.modrank([[-1, 1], [1, -1]], 5) == 1
