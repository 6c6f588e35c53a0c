"""Unit and property tests for the exact rearrangement machinery."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

from seshadri import reorder
from seshadri.geometry import Axis
from seshadri.reorder import (PiecewiseLinear, _first_crossing, height_profile,
                              monotone_reorder, sublevel_measure, sup_admissible)

import fraction_reference as ref
from fraction_reference import OutOfRange
from conftest import random_concave_profile, random_pl, random_polygon

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
        with pytest.raises(TypeError):
            PiecewiseLinear((0, 1), (True, 1))
        with pytest.raises(ValueError):
            PiecewiseLinear((0, 1, 2), (0, 1))
        with pytest.raises(ValueError):
            PiecewiseLinear((0, "1/2", "2/4"), (0, 1, 2))

    def test_evaluation(self):
        assert ref.evaluate(TENT, F(1, 2)) == 1
        assert ref.evaluate(TENT, F(3, 2)) == 1
        assert ref.evaluate(TENT, 2) == 0
        with pytest.raises(OutOfRange):
            ref.evaluate(TENT, 3)

    def test_integral(self):
        assert ref.integral(TENT) == 2
        assert ref.integral(IDENTITY) == F(1, 2)

    def test_restrict_and_translate(self):
        r = ref.restrict(TENT, F(1, 2), F(3, 2))
        assert ref.domain(r) == (F(1, 2), F(3, 2))
        assert ref.evaluate(r, 1) == 2
        t = ref.translate(IDENTITY, 5)
        assert ref.domain(t) == (5, 6)
        assert ref.evaluate(t, F(11, 2)) == F(1, 2)

    def test_canonical_and_equivalent(self):
        redundant = PiecewiseLinear((0, 1, 2), (0, 1, 2))
        assert ref.equivalent(redundant, PiecewiseLinear((0, 2), (0, 2)))
        assert not ref.equivalent(redundant, TENT)

    def test_json_round_trip(self):
        again = ref.pl_from_json(P6_PROFILE.to_json())
        assert again == P6_PROFILE

    def test_text_is_the_fraction_string(self):
        rng = random.Random(59)
        cases = [(0, 1), (0, 7), (-6, 3), (12, 4), (5, 1), (-5, 1), (-3, 9), (10**20, 10**19)]
        cases += [(rng.randint(-10**6, 10**6), rng.randint(1, 60)) for _ in range(2000)]
        for x, d in cases:
            assert reorder._text(x, d) == str(F(x, d)), (x, d)

    def test_json_lists_are_fresh_each_call(self):
        f = PiecewiseLinear((F(-3, 2), 0, 4), (F(7, 6), -2, 0))
        first, second = f.to_json(), f.to_json()
        assert first == second == {"breakpoints": ["-3/2", "0", "4"],
                                    "values": ["7/6", "-2", "0"]}
        for key in first:
            assert first[key] is not second[key]
        first["values"].append("1")
        assert f.to_json() == second


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
            assert ref.equivalent(monotone_reorder(g), ref.translate(g, -g.breakpoints[0]))

    def test_nondecreasing_property(self):
        rng = random.Random(13)
        for _ in range(200):
            fs = monotone_reorder(random_pl(rng))
            assert ref.is_nondecreasing(fs)

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
            bump = random_pl(rng, domain=ref.domain(f), lo=0, hi=6)
            grid = sorted(set(f.breakpoints) | set(bump.breakpoints))
            g = PiecewiseLinear(grid, tuple(ref.evaluate(f, t) + ref.evaluate(bump, t)
                                            for t in grid))
            fs, gs = monotone_reorder(f), monotone_reorder(g)
            for t in set(fs.breakpoints) | set(gs.breakpoints):
                assert ref.evaluate(fs, t) <= ref.evaluate(gs, t)

    def test_max_norm_contraction(self):
        rng = random.Random(23)
        for _ in range(200):
            f = random_pl(rng)
            g = random_pl(rng, domain=ref.domain(f))
            eps = ref.max_norm_distance(f, g)
            assert ref.max_norm_distance(monotone_reorder(f),
                                         monotone_reorder(g)) <= 2 * eps

    def test_cutoff_stability(self):
        # shrinking the domain by delta moves the rearrangement by at most
        # 3 * Lmax * delta; the bound decreases to 0 along a halving sequence
        rng = random.Random(29)
        for _ in range(40):
            f = random_pl(rng, max_breaks=8)
            a, b = ref.domain(f)
            lmax = max(abs(v1 - v0) / (t1 - t0) for t0, t1, v0, v1 in ref.segments(f))
            delta = (b - a) / 4
            prev_bound = None
            while delta >= (b - a) / 64:
                cut = ref.restrict(f, a + delta / 2, b - delta / 2)
                full = monotone_reorder(f)
                part = monotone_reorder(cut)
                diff = ref.max_norm_distance(
                    PiecewiseLinear(part.breakpoints,
                                    tuple(ref.evaluate(full, t) for t in part.breakpoints)),
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
                assert ref.evaluate(fs, t) >= t


class TestCriterion:
    def test_identity_dominates(self):
        crit = ref.dominates_identity(IDENTITY, 1)
        assert crit.verdict and crit.failure_t is None

    def test_simplex_profile(self):
        fs = monotone_reorder(DECREASING)
        assert ref.dominates_identity(fs, F(1, 2)).verdict

    def test_p6_profile(self):
        fs = monotone_reorder(P6_PROFILE)
        assert ref.dominates_identity(fs, F(4, 13)).verdict

    def test_failure_witness(self):
        fs = monotone_reorder(PiecewiseLinear((0, 1), (F(1, 4), F(1, 4))))
        crit = ref.dominates_identity(fs, F(1, 2))
        assert not crit.verdict
        assert crit.failure_t is not None
        assert 0 < crit.failure_t <= F(1, 2)
        assert ref.evaluate(fs, crit.failure_t) < crit.failure_t

    @pytest.mark.parametrize("m", [F(1, 2), F(1)])
    def test_failure_witness_below_zero(self, m):
        # starting below 0: the witness comes from the first root
        fs = PiecewiseLinear((0, 1), (-1, 1))
        crit = ref.dominates_identity(fs, m)
        assert not crit.verdict
        assert 0 < crit.failure_t <= m
        assert ref.evaluate(fs, crit.failure_t) < crit.failure_t

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            ref.dominates_identity(IDENTITY, 2)
        with pytest.raises(ValueError):
            ref.dominates_identity(IDENTITY, 0)


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
                assert ref.dominates_identity(fs, sup).verdict
            if sup < f.width:
                probe = sup + (f.width - sup) / 2
                assert not ref.dominates_identity(fs, probe).verdict

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sup_admissible(PiecewiseLinear((0, 1), (-1, 1)))


class TestEqualsFractionReference:
    """The integer rearrangement and crossing equal the former ``Fraction``
    bodies kept in ``fraction_reference``."""

    @pytest.mark.parametrize("seed", range(3))
    def test_random_functions(self, seed):
        rng = random.Random(53 + seed)
        for k in range(300):
            f = (random_concave_profile(rng) if k % 3 == 0
                 else random_pl(rng, lo=0 if k % 3 == 1 else -8))
            fs = monotone_reorder(f)
            assert fs == ref.monotone_reorder(f), f
            if fs.values[0] >= 0:
                assert _first_crossing(fs) == ref.first_crossing(fs), fs


def _int_form_faults(seed: int, count: int) -> list:
    """Where the profiles and rearrangements of ``count`` seeded polygons
    break the int form: fields that are not in lowest terms, that the
    constructor refuses or that break a check downstream, or a function,
    rearrangement or crossing that differs from the ``Fraction`` reference."""
    rng = random.Random(seed)
    faults = []
    for _ in range(count):
        poly = random_polygon(rng)
        for axis in Axis:
            try:
                faults += _axis_faults(poly, axis)
            except (ValueError, RuntimeError) as exc:
                faults.append((str(exc), poly, axis))
    return faults


def _axis_faults(poly, axis) -> list:
    faults = []
    f = height_profile(poly, axis)
    fs = monotone_reorder(f)
    for g in (f, fs):
        again = PiecewiseLinear(g.breakpoints, g.values)
        if again != g or hash(again) != hash(g):
            faults.append(("not in lowest terms", g))
    if f != ref.height_profile(poly.vertices, axis):
        faults.append(("profile", poly, axis))
    if fs != ref.monotone_reorder(f):
        faults.append(("rearrangement", f))
    if _first_crossing(fs) != ref.first_crossing(fs):
        faults.append(("crossing", fs))
    return faults


class TestIntForm:
    """A function is ints over two denominators, each in lowest terms
    against its tuple, so equal functions have equal fields."""

    def test_pipeline_functions_are_canonical(self):
        assert _int_form_faults(61, 300) == []

    def test_every_field_is_frozen(self):
        def made():
            return monotone_reorder(height_profile(random_polygon(random.Random(67))))
        for name in ("tden", "ts", "vden", "vs", "breakpoints", "values", "width",
                     "_strings"):
            # refused before and after a derived value's first read
            f, twin = made(), made()
            for _ in range(2):
                with pytest.raises(AttributeError):
                    setattr(f, name, None)
                assert getattr(f, name) == getattr(twin, name)

    def test_public_and_unchecked_ways_in_agree(self):
        f = PiecewiseLinear(("2/4", F(3, 4), 1), (0, "-6/8", 3))
        assert (f.tden, f.ts, f.vden, f.vs) == (4, (2, 3, 4), 4, (0, -3, 12))
        assert reorder._from_ints(12, [6, 9, 12], 8, [0, -6, 24]) == f

    @pytest.mark.parametrize("plant", ["skip the last item", "keep a factor of 2"])
    def test_a_planted_reduction_fault_is_caught(self, plant, monkeypatch):
        def lowest(den, xs):
            g = gcd(den, *xs[:-1]) if plant == "skip the last item" else gcd(den, *xs)
            if plant == "keep a factor of 2" and g % 2 == 0:
                g //= 2
            return den // g, tuple([x // g for x in xs])
        monkeypatch.setattr(reorder, "_lowest", lowest)
        assert _int_form_faults(61, 300) != []


# Run under ``python -O``: each fake decomposition breaks one invariant of
# the rearrangement, and the explicit checks must still name it.
_BROKEN_DECOMPOSITIONS = """
import json, sys
import seshadri.reorder as reorder
from seshadri.reorder import PiecewiseLinear, monotone_reorder

real = reorder._level_decomposition

def drop_mass(f):
    levels, masses, densities, units = real(f)
    return levels, (0,) + masses[1:], densities, units

def drop_density(f):
    levels, masses, densities, units = real(f)
    return levels, masses, (0,) + densities[1:], units

flat_then_rising = PiecewiseLinear((0, 1, 2), (0, 0, 1))
out = {"optimize": sys.flags.optimize}
for fake in (drop_mass, drop_density):
    reorder._level_decomposition = fake
    try:
        monotone_reorder(flat_then_rising)
    except RuntimeError as exc:
        out[fake.__name__] = str(exc)
print(json.dumps(out))
"""


def test_invariant_checks_survive_optimised_mode():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_DECOMPOSITIONS],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    assert "equimeasurability" in out["drop_mass"]
    assert "measure 1, not the domain width 2" in out["drop_mass"]
    assert "no sloped piece crosses the value gap (0, 1)" in out["drop_density"]
