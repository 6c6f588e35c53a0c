"""Unit and property tests for the exact rearrangement machinery."""

import random
from fractions import Fraction as F

import pytest

from seshadri.reorder import (OutOfRange, PiecewiseLinear, dominates_identity,
                              max_norm_distance, monotone_reorder,
                              sublevel_measure, sup_admissible)

from conftest import random_concave_profile, random_pl

IDENTITY = PiecewiseLinear((0, 1), (0, 1))
TENT = PiecewiseLinear((0, 1, 2), (0, 2, 0))          # height 2 over [0, 2]
DECREASING = PiecewiseLinear((0, 1), (1, 0))          # 1 - t
P6_PROFILE = PiecewiseLinear((F(5, 13), F(7, 13), F(9, 13)),
                             (0, F(4, 13), 0))


class TestPiecewiseLinear:
    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinear((0,), (1,))
        with pytest.raises(ValueError):
            PiecewiseLinear((0, 0), (1, 1))
        with pytest.raises(ValueError):
            PiecewiseLinear((1, 0), (1, 1))
        with pytest.raises(TypeError):
            PiecewiseLinear((0, 1.5), (0, 1))

    def test_evaluation(self):
        assert TENT(F(1, 2)) == 1
        assert TENT(F(3, 2)) == 1
        assert TENT(2) == 0
        with pytest.raises(OutOfRange):
            TENT(3)

    def test_integral(self):
        assert TENT.integral() == 2
        assert IDENTITY.integral() == F(1, 2)

    def test_restrict_and_translate(self):
        r = TENT.restrict(F(1, 2), F(3, 2))
        assert r.domain == (F(1, 2), F(3, 2))
        assert r(1) == 2
        t = IDENTITY.translate(5)
        assert t.domain == (5, 6)
        assert t(F(11, 2)) == F(1, 2)

    def test_canonical_and_equivalent(self):
        redundant = PiecewiseLinear((0, 1, 2), (0, 1, 2))
        assert redundant.canonical() == PiecewiseLinear((0, 2), (0, 2))
        assert redundant.equivalent(PiecewiseLinear((0, 2), (0, 2)))
        assert not redundant.equivalent(TENT)

    def test_argmax_leftmost(self):
        flat_top = PiecewiseLinear((0, 1, 2, 3), (0, 5, 5, 0))
        assert flat_top.argmax() == (1, 5)

    def test_json_round_trip(self):
        again = PiecewiseLinear.from_json(P6_PROFILE.to_json())
        assert again == P6_PROFILE


class TestMonotoneReorder:
    def test_reflection(self):
        assert monotone_reorder(DECREASING) == IDENTITY

    def test_tent_becomes_line(self):
        assert monotone_reorder(TENT) == PiecewiseLinear((0, 2), (0, 2))

    def test_constant(self):
        c = PiecewiseLinear((0, 1), (5, 5))
        assert monotone_reorder(c) == PiecewiseLinear((0, 1), (5, 5))

    def test_flat_top(self):
        trap = PiecewiseLinear((0, F(1, 2), 1), (F(1, 2), F(1, 2), 0))
        assert monotone_reorder(trap) == PiecewiseLinear(
            (0, F(1, 2), 1), (0, F(1, 2), F(1, 2)))

    def test_nondecreasing_input_is_translated(self):
        rng = random.Random(11)
        for _ in range(100):
            f = random_pl(rng)
            g = PiecewiseLinear(f.breakpoints, tuple(sorted(f.values)))
            assert monotone_reorder(g).equivalent(g.translate(-g.breakpoints[0]))

    def test_nondecreasing_property(self):
        rng = random.Random(13)
        for _ in range(200):
            fs = monotone_reorder(random_pl(rng))
            assert fs.is_nondecreasing()

    def test_equimeasurable(self):
        rng = random.Random(17)
        for _ in range(200):
            f = random_pl(rng)
            fs = monotone_reorder(f)
            for s in set(f.values) | set(fs.values):
                assert sublevel_measure(f, s) == sublevel_measure(fs, s)

    def test_order_preservation(self):
        rng = random.Random(19)
        for _ in range(200):
            f = random_pl(rng)
            bump = random_pl(rng, domain=f.domain, lo=0, hi=6)
            grid = sorted(set(f.breakpoints) | set(bump.breakpoints))
            g = PiecewiseLinear(grid, tuple(f(t) + bump(t) for t in grid))
            fs, gs = monotone_reorder(f), monotone_reorder(g)
            for t in set(fs.breakpoints) | set(gs.breakpoints):
                assert fs(t) <= gs(t)

    def test_max_norm_contraction(self):
        rng = random.Random(23)
        for _ in range(200):
            f = random_pl(rng)
            g = random_pl(rng, domain=f.domain)
            eps = max_norm_distance(f, g)
            assert max_norm_distance(monotone_reorder(f),
                                     monotone_reorder(g)) <= 2 * eps

    def test_cutoff_stability(self):
        # shrinking the domain by delta moves the rearrangement by at most
        # 3 * Lmax * delta; the bound decreases to 0 along a halving sequence
        rng = random.Random(29)
        for _ in range(40):
            f = random_pl(rng, max_breaks=8)
            a, b = f.domain
            lmax = max(abs(v1 - v0) / (t1 - t0) for t0, t1, v0, v1 in f.segments())
            delta = (b - a) / 4
            prev_bound = None
            while delta >= (b - a) / 64:
                cut = f.restrict(a + delta / 2, b - delta / 2)
                full = monotone_reorder(f)
                part = monotone_reorder(cut)
                diff = max_norm_distance(
                    PiecewiseLinear(part.breakpoints,
                                    tuple(full(t) for t in part.breakpoints)),
                    part)
                bound = 3 * lmax * delta
                assert diff <= bound
                if prev_bound is not None:
                    assert bound < prev_bound
                prev_bound = bound
                delta = delta / 2

    def test_concave_domination(self):
        rng = random.Random(31)
        for _ in range(200):
            f = random_concave_profile(rng)
            fs = monotone_reorder(f)
            for t in fs.breakpoints:
                assert fs(t) >= t


class TestCriterion:
    def test_identity_dominates(self):
        crit = dominates_identity(IDENTITY, 1)
        assert crit.verdict and crit.failure_t is None

    def test_simplex_profile(self):
        fs = monotone_reorder(DECREASING)
        assert dominates_identity(fs, F(1, 2)).verdict

    def test_p6_profile(self):
        fs = monotone_reorder(P6_PROFILE)
        assert dominates_identity(fs, F(4, 13)).verdict

    def test_failure_witness(self):
        fs = monotone_reorder(PiecewiseLinear((0, 1), (F(1, 4), F(1, 4))))
        crit = dominates_identity(fs, F(1, 2))
        assert not crit.verdict
        assert crit.failure_t is not None
        assert 0 < crit.failure_t <= F(1, 2)
        assert fs(crit.failure_t) < crit.failure_t

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            dominates_identity(IDENTITY, 2)
        with pytest.raises(ValueError):
            dominates_identity(IDENTITY, 0)


class TestSupAdmissible:
    def test_examples(self):
        assert sup_admissible(DECREASING) == 1
        assert sup_admissible(P6_PROFILE) == F(4, 13)
        assert sup_admissible(PiecewiseLinear((0, 1), (F(1, 4), F(1, 4)))) == F(1, 4)

    def test_immediate_crossing(self):
        # shallow tent: rearrangement slope 4/9 < 1, admissible sup is 0
        shallow = PiecewiseLinear((0, F(4, 13), F(6, 13)),
                                  (0, F(8, 39), 0))
        assert sup_admissible(shallow) == 0

    def test_never_exceeds_width(self):
        rng = random.Random(37)
        for _ in range(100):
            f = random_pl(rng, lo=0, hi=12)
            sup = sup_admissible(f)
            assert 0 <= sup <= f.width

    def test_consistent_with_criterion(self):
        rng = random.Random(41)
        for _ in range(100):
            f = random_pl(rng, lo=0, hi=12)
            sup = sup_admissible(f)
            fs = monotone_reorder(f)
            if sup > 0:
                assert dominates_identity(fs, sup).verdict
            if sup < f.width:
                probe = sup + (f.width - sup) / 2
                assert not dominates_identity(fs, probe).verdict

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sup_admissible(PiecewiseLinear((0, 1), (-1, 1)))
