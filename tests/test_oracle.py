"""Unit and cross-validation tests for the interpolation-rank oracle."""

import random
import re
from fractions import Fraction as F
import pytest

from seshadri._kernels import pyref
from seshadri.lattice import (Direction, LatticeSet, column_profile,
                              max_parallel_witness, select_witness_subset)
from seshadri.oracle import (ArityMismatch, BadModulus, GenericPointSet,
                             PrimeTooSmall, SizeGuardrail, MODULAR_DEFAULT_PRIME,
                             fraction_free_rank, interpolation_matrix,
                             system_dimension_exact, system_dimension_modp)

import fraction_reference as ref

DEG2 = LatticeSet(((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
COLLINEAR = LatticeSet(((0, 0), (1, 0), (2, 0)))
# seven points for the six conditions of multiplicity 3: no staircase
DEG2_AND_ONE = LatticeSet(DEG2.points + ((3, 0),))
ONE_POINT = GenericPointSet(((3, 5),))


class TestInterpolationMatrix:
    def test_single_constant(self):
        mat = interpolation_matrix(LatticeSet(((0, 0),)), ONE_POINT, (1,))
        assert mat == [[1]]

    def test_shape_six_by_six(self):
        mat = interpolation_matrix(DEG2, ONE_POINT, (3,))
        assert len(mat) == 6 and len(mat[0]) == 6

    def test_collinear_exponents_rank_two(self):
        mat = interpolation_matrix(COLLINEAR, ONE_POINT, (2,))
        assert len(mat) == 3
        # the y-derivative row vanishes identically on beta = 0 exponents
        assert any(all(e == 0 for e in row) for row in mat)
        assert fraction_free_rank(mat) == 2

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            interpolation_matrix(DEG2, GenericPointSet(((1, 2), (3, 4))), (3,))


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
        v = system_dimension_exact(DEG2, (3,))
        assert v.actual_dimension == -1 and v.non_special
        assert v.method == "exact-rational"

    def test_collinear_exponents_special(self):
        v = system_dimension_exact(COLLINEAR, (2,))
        assert v.expected_dimension == -1
        assert v.actual_dimension == 0
        assert not v.non_special

    def test_empty_spec(self):
        d = 3
        full = LatticeSet(tuple((i, j) for i in range(d + 1)
                                for j in range(d + 1 - i)))
        v = system_dimension_exact(full, ())
        assert v.actual_dimension == d * (d + 3) // 2
        assert v.non_special and v.seed is None

    def test_explicit_points_reject_floats(self):
        with pytest.raises(TypeError):
            GenericPointSet.explicit([(0.5, F(1, 3))])

    @pytest.mark.parametrize("pts,message", [
        (["12", "34"], "point 1 '12' is not a list of 2 items"),
        ([(1, 2), (1, 2, 3)], "point 2 (1, 2, 3) is not a list of 2 items"),
    ], ids=["strings", "three coordinates"])
    def test_explicit_points_are_pairs(self, pts, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            GenericPointSet.explicit(pts)

    def test_explicit_points_deterministic(self):
        pts = GenericPointSet.explicit([(F(1, 3), F(2, 5)), (F(3, 7), F(1, 2))])
        v1 = system_dimension_exact(DEG2, (2, 1), points=pts)
        v2 = system_dimension_exact(DEG2, (2, 1), points=pts)
        assert v1 == v2

    def test_guardrail(self, monkeypatch):
        # one point on a set that is no staircase: its 6x7 point-free
        # matrix B is what is counted
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "41")
        with pytest.raises(SizeGuardrail, match="^6x7 point-free matrix .* "
                                                "set SESHADRI_MAX_CELLS$"):
            system_dimension_exact(DEG2_AND_ONE, (3,))
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "42")
        assert system_dimension_exact(DEG2_AND_ONE, (3,)).non_special
        # several points: the 4x6 rational matrix
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "23")
        with pytest.raises(SizeGuardrail, match="^4x6 exact matrix"):
            system_dimension_exact(DEG2, (2, 1), GenericPointSet(((1, 2), (3, 4))))
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "1000000")
        assert system_dimension_exact(DEG2, (3,)).non_special

    def test_guardrail_charges_each_entry_its_words(self, monkeypatch):
        # the cap counts 64-bit words: x^64 at a coordinate below 2^17 is
        # charged 64 * 17 bits, 17 words; at the points (1, 1) and (2, 3),
        # of 2 bits, it is charged 2 words
        far = LatticeSet(((0, 0), (64, 0)))
        for cap, top in ((67, 2**17 - 1), (7, 3)):
            points = GenericPointSet.explicit([(1, 1), (2, top)])
            monkeypatch.setenv("SESHADRI_MAX_CELLS", str(cap))
            words = (cap + 1) // 4
            with pytest.raises(SizeGuardrail, match=re.escape(
                    f"2x2 exact matrix of {words}-word entries exceeds the cell cap")):
                system_dimension_exact(far, (1, 1), points)
            monkeypatch.setenv("SESHADRI_MAX_CELLS", str(cap + 1))
            assert system_dimension_exact(far, (1, 1), points).non_special

    def test_several_points_are_ranked_only_where_stated(self):
        # no rank at sampled points, which could not prove a special
        # verdict: refused, naming the mode that ranks at random points
        for ms in ((1, 1), (2, 2, 1)):
            with pytest.raises(ArityMismatch, match=re.escape(
                    f"0 points for {len(ms)} multiplicities; the exact mode ranks only "
                    "at stated points: give 'points', or use --mode modular")):
                system_dimension_exact(DEG2, ms)

    def test_special_system_at_stated_points(self):
        # two double points impose six conditions on conics, but the double
        # line through them survives; at stated points the rank is exact,
        # so the special verdict needs no caveat and names no seed
        v = system_dimension_exact(DEG2, (2, 2), GenericPointSet.explicit([(1, 2), (3, 5)]))
        assert v.actual_dimension == 0 and v.expected_dimension == -1
        assert not v.non_special and v.seed is None and v.caveat is None

    def test_actual_at_least_expected(self):
        rng = random.Random(5)
        for _ in range(40):
            pts = LatticeSet(tuple((rng.randint(0, 3), rng.randint(0, 3))
                                   for _ in range(rng.randint(1, 8))))
            if len(pts) == 0:
                continue
            ms = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
            points = None if len(ms) == 1 else GenericPointSet.explicit(
                [(rng.randint(-5, 5), rng.randint(1, 5)), (rng.randint(-5, 5), 0)])
            v = system_dimension_exact(pts, ms, points)
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
            exact = system_dimension_exact(pts, ms)
            modular = system_dimension_modp(pts, ms, seed=seed)
            assert modular.actual_dimension == exact.actual_dimension

    def test_seed_determinism(self):
        a = system_dimension_modp(DEG2, (3,), seed=42)
        b = system_dimension_modp(DEG2, (3,), seed=42)
        assert a == b
        c = system_dimension_modp(DEG2, (3,), seed=43)
        assert c.prime == a.prime

    def test_guardrail_on_several_points(self, monkeypatch):
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "10")
        with pytest.raises(SizeGuardrail, match="^3x6 modular matrix"):
            system_dimension_modp(DEG2, (1, 1, 1), seed=0)
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "1000000")
        assert system_dimension_modp(DEG2, (1, 1, 1), seed=0).non_special

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

    def test_more_points_than_the_field_holds(self):
        # GF(3) has (3 - 1)^2 = 4 points with nonzero coordinates: four
        # points fit, five are refused before any row is built
        assert system_dimension_modp(DEG2, (1,) * 4, seed=0, prime=3).prime == 3
        with pytest.raises(PrimeTooSmall, match=re.escape(
                "prime 3 leaves 4 distinct points with nonzero coordinates, "
                "fewer than the system's 5 points")):
            system_dimension_modp(DEG2, (1,) * 5, seed=0, prime=3)

    def test_witness_from_scaled_triangle(self):
        gke = ref.polygon([("5/13", 0), ("7/13", "6/13"), ("9/13", "4/13")])
        pts = LatticeSet(ref._scaled_points_reference(gke, 26))
        m = max_parallel_witness(column_profile(pts, Direction.VERTICAL))
        assert m == 8
        w = select_witness_subset(pts, Direction.VERTICAL, 8)
        v = system_dimension_modp(w.subset, (8,), seed=0)
        assert v.actual_dimension == -1 and v.non_special


class TestCurveMembership:
    def test_monomial_count(self):
        assert len(ref.monomials_up_to(1)) == 3
        assert len(ref.monomials_up_to(2)) == 6

    def test_collinear_points_on_line(self):
        assert ref.points_on_curve(COLLINEAR, 1)

    def test_triangle_not_on_line(self):
        assert not ref.points_on_curve(LatticeSet(((0, 0), (1, 0), (0, 1))), 1)

    def test_equivalence_sample(self):
        # non-specialty of the one-point system of size binom(m+1, 2) matches
        # "exponents avoid every curve of degree m - 1"
        grid = [(i, j) for i in range(4) for j in range(4)]
        rng = random.Random(11)
        for _ in range(60):
            pts = LatticeSet(tuple(rng.sample(grid, 6)))
            v = system_dimension_exact(pts, (3,))
            assert v.non_special == (not ref.points_on_curve(pts, 2))


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
            v = system_dimension_exact(w.subset, (m,))
            assert v.non_special and v.actual_dimension == -1


class TestKernels:
    def test_pyref_known(self):
        assert pyref.modrank([[1, 0], [0, 1]], 7) == 2
        assert pyref.modrank([[2, 4], [3, 6]], 101) == 1
        assert pyref.modrank([[7, 14]], 7) == 0  # vanishes mod 7

    def test_negative_entries_reduced(self):
        assert pyref.modrank([[-1, 1], [1, -1]], 5) == 1
