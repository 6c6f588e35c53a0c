"""Acceptance suite: one test per criterion, one printed line per verdict.

Every assertion is exact (rational equality or integer comparison); the
stated runtime budgets are asserted as generous wall-clock caps.  Run with
``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import random
import time
from fractions import Fraction as F
from itertools import combinations
from math import comb

from seshadri.certify import finite_certificate
from seshadri.dissection import (builtin_dissection_eckl10, certified_bound,
                                 validate_dissection, verify_asymptotic)
from seshadri.geometry import Axis, Interval, height_profile, x_projection
from seshadri.lattice import LatticeSet, expected_dimension
from seshadri.oracle import system_dimension_exact
from seshadri.reorder import monotone_reorder, sublevel_measure

import fraction_reference as ref
from conftest import random_concave_profile, random_pl

BUILTIN = builtin_dissection_eckl10()


def _verdict(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_01_exact_bound():
    t0 = time.time()
    bound = certified_bound(BUILTIN)
    elapsed = time.time() - t0
    _verdict(1, bound == F(4, 13) and elapsed < 1.0,
             f"certified bound is {bound} (expected 4/13), {elapsed:.3f}s")


def test_criterion_02_per_polygon_facts():
    p6 = BUILTIN.polygons()[5]
    p8 = BUILTIN.polygons()[7]
    f6, f8 = height_profile(p6, Axis.X), height_profile(p8, Axis.X)
    ok = (x_projection(p6, Axis.X) == Interval(F(5, 13), F(9, 13))
          and max(f6.values) == F(4, 13) and ref.evaluate(f6, F(7, 13)) == F(4, 13)
          and x_projection(p8, Axis.X) == Interval(F(3, 13), F(7, 13))
          and max(f8.values) == F(4, 13) and ref.evaluate(f8, F(6, 13)) == F(4, 13))
    _verdict(2, ok, "P6/P8 projections and chords match the exact table values")


def test_criterion_03_strictness_boundary():
    t0 = time.time()
    below = verify_asymptotic(BUILTIN, F(4, 13) - F(1, 10**6))
    at = verify_asymptotic(BUILTIN, F(4, 13))
    elapsed = time.time() - t0
    first_failing = ref.failing(at)[0] if ref.failing(at) else None
    ok = (below.overall and not at.overall
          and first_failing in {1, 6, 7, 8, 9, 10}
          and elapsed < 1.0)
    _verdict(3, ok, f"passes at 4/13 - 1e-6, fails at 4/13 "
                    f"(first failing piece P{first_failing}), {elapsed:.3f}s")


def test_criterion_04_partition_validation():
    t0 = time.time()
    total = sum(ref.area(p) for p in BUILTIN.polygons())
    report = validate_dissection(BUILTIN)
    elapsed = time.time() - t0
    _verdict(4, total == F(1, 2) and report.ok and elapsed < 1.0,
             f"areas sum to {total}, all cut-sign checks pass, {elapsed:.3f}s")


def test_criterion_05_rearrangement_suite():
    t0 = time.time()
    rng = random.Random(505)
    checked = 0
    for _ in range(1000):
        f = random_pl(rng, max_breaks=12)
        fs = monotone_reorder(f)
        # (a) nondecreasing
        assert ref.is_nondecreasing(fs)
        # (b) equimeasurable at every breakpoint level
        for s in set(f.values) | set(fs.values):
            assert sublevel_measure(f, s) == sublevel_measure(fs, s)
        # (c) order preservation against a dominating partner
        bump = random_pl(rng, domain=ref.domain(f), lo=0, hi=5)
        grid = sorted(set(f.breakpoints) | set(bump.breakpoints))
        g = type(f)(tuple(grid),
                    tuple(ref.evaluate(f, t) + ref.evaluate(bump, t) for t in grid))
        gs = monotone_reorder(g)
        for t in set(fs.breakpoints) | set(gs.breakpoints):
            assert ref.evaluate(fs, t) <= ref.evaluate(gs, t)
        # (d) max-norm contraction with factor 2
        h = random_pl(rng, max_breaks=12, domain=ref.domain(f))
        assert (ref.max_norm_distance(fs, monotone_reorder(h))
                <= 2 * ref.max_norm_distance(f, h))
        # (e) concave domination of the identity
        c = random_concave_profile(rng)
        cs = monotone_reorder(c)
        assert max(c.values) >= c.width
        for t in cs.breakpoints:
            assert ref.evaluate(cs, t) >= t
        checked += 1
    elapsed = time.time() - t0
    _verdict(5, checked >= 1000 and elapsed < 30.0,
             f"{checked} randomized functions through (a)-(e), {elapsed:.1f}s")


def test_criterion_06_oracle_equivalence():
    t0 = time.time()
    grid = [(i, j) for i in range(4) for j in range(4)]
    checked = 0
    for combo in combinations(grid, 3):
        D = LatticeSet(combo)
        verdict = system_dimension_exact(D, (2,))
        assert verdict.non_special == (not ref.points_on_curve(D, 1))
        checked += 1
    assert checked == comb(16, 3)
    rng = random.Random(606)
    seen = set()
    while len(seen) < 200:
        combo = tuple(sorted(rng.sample(grid, 6)))
        if combo in seen:
            continue
        seen.add(combo)
        D = LatticeSet(combo)
        verdict = system_dimension_exact(D, (3,))
        assert verdict.non_special == (not ref.points_on_curve(D, 2))
        checked += 1
    elapsed = time.time() - t0
    _verdict(6, checked == comb(16, 3) + 200 and elapsed < 60.0,
             f"{checked} systems match the curve-membership test, {elapsed:.1f}s")


def test_criterion_07_witness_soundness_end_to_end():
    t0 = time.time()
    cert = finite_certificate(BUILTIN, 13, oracle_mode="exact")
    elapsed = time.time() - t0
    ok = (all(p.m >= 3 for p in cert.per_polygon)
          and all(p.oracle is not None and p.oracle.non_special
                  and p.oracle.actual_dimension == -1
                  and p.oracle.method == "exact-rational"
                  for p in cert.per_polygon)
          and elapsed < 60.0)
    _verdict(7, ok, f"scale-13 witnesses {[p.m for p in cert.per_polygon]} all "
                    f"confirmed dimension -1, {elapsed:.1f}s")


def test_criterion_08_scaling_trend():
    t0 = time.time()
    ratios = []
    for n in (13, 26, 39, 52):
        cert = finite_certificate(BUILTIN, n, oracle_mode="modular")
        assert all(p.oracle is not None and p.oracle.non_special
                   for p in cert.per_polygon)
        ratios.append(cert.min_ratio)
    elapsed = time.time() - t0
    ok = (all(a <= b for a, b in zip(ratios, ratios[1:]))
          and all(q <= F(4, 13) for q in ratios)
          and ratios[-1] >= F(4, 13) - F(2, 52)
          # regression pin from the first implementation run
          and ratios == [F(3, 13), F(7, 26), F(11, 39), F(15, 52)]
          and elapsed < 300.0)
    _verdict(8, ok, f"min ratios {[str(q) for q in ratios]} nondecreasing "
                    f"within slack of 4/13, {elapsed:.1f}s")


def test_criterion_09_below_one_over_sqrt10():
    bound = certified_bound(BUILTIN)
    ok = bound ** 2 * 10 == F(160, 169) and F(160, 169) < 1
    _verdict(9, ok, f"{bound} sits below 1/sqrt(10): 10 * ({bound})^2 = 160/169 < 1")


def test_criterion_10_expected_dimension_formula():
    rng = random.Random(1010)
    ok = True
    for _ in range(50):
        d = rng.randint(0, 40)
        ms = tuple(rng.randint(1, 10) for _ in range(rng.randint(0, 10)))
        monomials = sum(1 for i in range(d + 1) for j in range(d + 1 - i))
        conditions = sum(m * (m + 1) // 2 for m in ms)
        ok = ok and (expected_dimension(ms, count=(d + 1) * (d + 2) // 2)
                     == max(-1, monomials - 1 - conditions))
    # the 253 monomials of degree <= 21
    hard_example = expected_dimension((7,) * 6 + (6,) * 4 + (1,), count=253)
    ok = ok and hard_example == -1
    _verdict(10, ok, "formula matches direct summation on 50 inputs and the "
                     "degree-21 example gives -1")
