"""Tests for dissection validation, verification and finite certificates."""

import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from seshadri.certify import (EmptyPolygonAtScale, FiniteCertificate, PolygonWitness,
                              finite_certificate)
from seshadri.dissection import (BUILTIN_POINT_TABLE, AsymptoticReport, CutStep,
                                 Dissection, InvalidDissection, PolygonCheck,
                                 builtin_dissection_eckl10, certified_bound,
                                 dissection_from_json, dissection_to_json, _peel,
                                 dump_json, validate_dissection, verify_asymptotic)
from seshadri.geometry import (AffineForm, Axis, ConvexPolygon, height_profile,
                               point, x_projection)
from seshadri.reorder import monotone_reorder, sup_admissible
from seshadri import __version__, lattice
from seshadri.lattice import Direction, WitnessSelection, scaled_points
from seshadri.oracle import _GF2_FULL, OracleVerdict, SizeGuardrail, _staircase_verdict

import fraction_reference as ref
from conftest import random_polygon

ROOT = Path(__file__).resolve().parent.parent
BUILTIN = builtin_dissection_eckl10()
SIMPLEX = ref.polygon([(0, 0), (1, 0), (0, 1)])


def _validate_reference(dis):
    """The former validator: cut signs, area partition of the simplex and
    containment in it.

    It reconciles the stated pieces with the cuts instead of re-deriving
    them; a dissection passes it exactly when every stated piece is the
    piece its cut peels.
    """
    v = []
    polys = dis.polygons()
    for idx, poly in enumerate(polys, start=1):
        if not poly.in_first_quadrant():
            v.append(f"P{idx} leaves the first quadrant")
        for vert in poly.vertices:
            if not ref.polygon_contains(SIMPLEX, vert):
                v.append(f"P{idx} vertex {vert} lies outside the simplex")
    total = sum((ref.area(p) for p in polys), F(0))
    if total != ref.area(SIMPLEX):
        v.append(f"areas sum to {total}, the simplex has {ref.area(SIMPLEX)}")
    for i, step in enumerate(dis.steps, start=1):
        vals = [step.cut(vert) for vert in step.peeled.vertices]
        if any(val > 0 for val in vals) or all(val == 0 for val in vals):
            v.append(f"cut {i} is not negative on the interior of P{i}")
        for j in range(i, len(polys)):
            later = polys[j]
            lvals = [step.cut(vert) for vert in later.vertices]
            if any(val < 0 for val in lvals) or all(val == 0 for val in lvals):
                v.append(f"cut {i} is not positive on the interior of P{j + 1}")
    return not v, v


def _mutated_eckl10(rng):
    """eckl10's JSON with one seeded mutation: a nudged piece vertex, a
    perturbed cut coefficient, two swapped steps or a dropped step."""
    data = dissection_to_json(BUILTIN)
    steps = data["steps"]
    kind = rng.choice(("nudge", "cut", "swap", "drop"))
    delta = F(rng.choice((-1, 1)), rng.randint(2, 200))
    if kind == "nudge":
        polygon = rng.choice([s["polygon"] for s in steps] + [data["final"]])
        vertex = rng.choice(polygon)
        k = rng.randrange(2)
        vertex[k] = str(F(vertex[k]) + delta)
    elif kind == "cut":
        cut = rng.choice(steps)["cut"]
        key = rng.choice(("r0", "r1", "r2"))
        cut[key] = str(F(cut[key]) + delta)
    elif kind == "swap":
        i, j = rng.sample(range(len(steps)), 2)
        steps[i], steps[j] = steps[j], steps[i]
    else:
        del steps[rng.randrange(len(steps))]
    return dissection_from_json(data)


def toy_half_split():
    """Simplex peeled once by x + y - 1/2; certified ratio is 1/2."""
    cut = AffineForm(F(-1, 2), 1, 1)
    neg = ref.polygon([(0, 0), (F(1, 2), 0), (0, F(1, 2))])
    pos = ref.polygon([(F(1, 2), 0), (1, 0), (0, 1), (0, F(1, 2))])
    return Dissection("half", (CutStep(cut, neg),), pos)


def toy_sliver():
    """Simplex with a width-1/100 sliver peeled off the left edge."""
    cut = AffineForm(F(-1, 100), 1, 0)
    neg = ref.polygon([(0, 0), (F(1, 100), 0), (F(1, 100), F(99, 100)), (0, 1)])
    pos = ref.polygon([(F(1, 100), 0), (1, 0), (F(1, 100), F(99, 100))])
    return Dissection("sliver", (CutStep(cut, neg),), pos)


def diagonal_sliver():
    """The simplex peeled by 12/13 - x - y, 7y - 5x and 5y - 7x: P3 is the
    thin diagonal sliver (0, 0), (7/13, 5/13), (5/13, 7/13), whose
    certified bound, and so the dissection's, is 0."""
    cuts = (AffineForm(F(12, 13), -1, -1), AffineForm(0, -5, 7), AffineForm(0, -7, 5))
    peeled = list(_peel(cuts))
    return Dissection("diagonal", tuple(step for step, _ in peeled), peeled[-1][1])


class TestBuiltin:
    def test_table_coordinates(self):
        t = BUILTIN_POINT_TABLE
        assert t["E"] == point(F(9, 13), F(4, 13))
        assert t["P"] == point(F(9, 26), F(9, 26))
        assert t["K"] == point(F(7, 13), F(6, 13))
        assert t["S"] == point(F(9, 26), 0)

    def test_point_r_on_fourth_cut_line(self):
        cut4 = BUILTIN.steps[3].cut
        assert cut4(BUILTIN_POINT_TABLE["R"]) == 0

    def test_shape(self):
        assert BUILTIN.r == 10
        assert len(BUILTIN.steps) == 9
        assert BUILTIN.name == "eckl10"

    def test_validates(self):
        report = validate_dissection(BUILTIN)
        assert report.ok and not report.violations

    def test_areas_sum_to_half(self):
        assert sum(ref.area(p) for p in BUILTIN.polygons()) == F(1, 2)

    def test_flipped_cut_sign_detected(self):
        step2 = BUILTIN.steps[1]
        flipped = CutStep(AffineForm(-step2.cut.r0, -step2.cut.r1, -step2.cut.r2),
                          step2.peeled)
        bad = Dissection(BUILTIN.name,
                         BUILTIN.steps[:1] + (flipped,) + BUILTIN.steps[2:],
                         BUILTIN.final)
        report = validate_dissection(bad)
        assert not report.ok
        assert any("cut 2" in v for v in report.violations)

    def test_overlap_detected(self):
        bad = Dissection("overlap", BUILTIN.steps[:1], SIMPLEX)
        report = validate_dissection(bad)
        assert not report.ok
        assert any("P2 is not the remainder" in v for v in report.violations)

    def test_repeated_cut_named(self):
        bad = Dissection(BUILTIN.name,
                         BUILTIN.steps[:1] + BUILTIN.steps[:1] + BUILTIN.steps[2:],
                         BUILTIN.final)
        report = validate_dissection(bad)
        assert not report.ok
        assert any("cut 2" in v for v in report.violations)

    def test_nudged_piece_named(self):
        data = dissection_to_json(BUILTIN)
        vertex = data["steps"][4]["polygon"][0]
        vertex[1] = str(F(vertex[1]) + F(1, 1000))
        report = validate_dissection(dissection_from_json(data))
        assert not report.ok
        assert report.violations == ("P5 is not the piece cut 5 peels off",)

    def test_agrees_with_reference_on_mutations(self):
        rng = random.Random(17)
        outcomes = []
        for _ in range(400):
            dis = _mutated_eckl10(rng)
            ok = validate_dissection(dis).ok
            assert ok == _validate_reference(dis)[0], dissection_to_json(dis)
            outcomes.append(ok)
        assert outcomes.count(True) >= 10 and outcomes.count(False) >= 300


class TestVerifyAsymptotic:
    def test_below_bound_passes(self):
        report = verify_asymptotic(BUILTIN, F(4, 13) - F(1, 10**6))
        assert report.overall
        assert all(c.passed for c in report.per_polygon)

    def test_bound_itself_fails_strictly(self):
        report = verify_asymptotic(BUILTIN, F(4, 13))
        assert not report.overall
        failing = ref.failing(report)
        assert failing
        assert set(failing) & {1, 6, 7, 8, 9, 10}

    def test_weak_bound_passes(self):
        assert verify_asymptotic(BUILTIN, F(1, 13)).overall

    def test_accepted_m_implies_strict_chord(self):
        report = verify_asymptotic(BUILTIN, F(3, 10))
        for check in report.per_polygon:
            poly = BUILTIN.polygons()[check.polygon - 1]
            assert ref.length(x_projection(poly, check.axis)) > F(3, 10)
            assert max(height_profile(poly, check.axis).values) > F(3, 10)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            verify_asymptotic(BUILTIN, 0)

    def test_rejects_invalid_dissection(self):
        bad = Dissection("overlap", BUILTIN.steps[:1], SIMPLEX)
        with pytest.raises(InvalidDissection):
            verify_asymptotic(bad, F(1, 13))

    def test_json_diagnostics(self):
        report = verify_asymptotic(BUILTIN, F(1, 13))
        data = report.to_json()
        assert data["overall"] is True
        assert len(data["per_polygon"]) == 10
        first = data["per_polygon"][0]
        assert "breakpoints" in first["profile"]
        assert "values" in first["reordered"]


class TestCertifiedBound:
    def test_builtin_is_four_thirteenths(self):
        assert certified_bound(BUILTIN) == F(4, 13)

    def test_toy_half_split(self):
        assert certified_bound(toy_half_split()) == F(1, 2)

    def test_sliver_caps_the_bound(self):
        assert certified_bound(toy_sliver()) <= F(1, 100)

    def test_zero_bound_dissection_still_certifies_finitely(self):
        # thin diagonal sliver: the rearranged profile drops below the
        # identity immediately on both axes, so no positive m is accepted,
        # yet scale-n witnesses still exist, and the oracle confirms them
        dis = diagonal_sliver()
        assert validate_dissection(dis).ok
        assert dis.polygons()[2] == ref.polygon([(0, 0), (F(7, 13), F(5, 13)),
                                                 (F(5, 13), F(7, 13))])
        bound = certified_bound(dis)
        assert bound == 0
        for n in (13, 26, 52):
            cert = finite_certificate(dis, n, oracle_mode="exact")
            for row in cert.per_polygon:
                assert row.m >= 1 and F(row.m, n) > bound
                assert row.oracle.non_special and row.oracle.actual_dimension == -1

    def test_is_supremum_of_accepted(self):
        bound = certified_bound(BUILTIN)
        for k in (10**3, 10**6):
            assert verify_asymptotic(BUILTIN, bound - F(1, k)).overall
        assert not verify_asymptotic(BUILTIN, bound).overall
        assert not verify_asymptotic(BUILTIN, bound + F(1, 10**6)).overall


def _tampered(dis):
    """Equal to ``dis`` but for one vertex of P5, moved off its cut."""
    data = dissection_to_json(dis)
    data["steps"][4]["polygon"][0][1] = str(F(data["steps"][4]["polygon"][0][1])
                                            + F(1, 1000))
    return dissection_from_json(data)


def _seeded_ms(seed):
    """Ratios on both sides of 4/13, below 1/3, and 4/13 itself."""
    rng = random.Random(seed)
    below = [F(rng.randint(1, 399), 1300) for _ in range(8)]
    above = [F(rng.randint(401, 433), 1300) for _ in range(7)]
    return below + above + [F(4, 13)]


# Prints {seed: [validations in the second pass, failures]} for seeds 1-8.
# The workload validates through ``certify``'s re-export and the bound
# through ``dissection``'s own name, so both are counted.
_PASS_VALIDATIONS = """
import json
import seshadri.certify as certify
import seshadri.dissection as dissection
from workloads import Asymptotic, Runner

calls = []
validate = dissection.validate_dissection

def counted(dis):
    calls.append(dis.name)
    return validate(dis)

certify.validate_dissection = dissection.validate_dissection = counted
out = {}
for seed in range(1, 9):
    workload, runner = Asymptotic(seed), Runner()
    workload.run_pass(runner)
    calls.clear()
    workload.run_pass(runner)
    out[seed] = [len(calls), runner.failures]
print(json.dumps(out))
"""


class TestValidatedOnce:
    @pytest.fixture
    def validations(self, monkeypatch):
        import seshadri.dissection as dissection
        calls = []

        def counted(dis):
            calls.append(dis.name)
            return validate_dissection(dis)
        monkeypatch.setattr(dissection, "validate_dissection", counted)
        return calls

    def test_a_valid_dissection_is_checked_once(self, validations):
        dis = dataclasses.replace(BUILTIN, name="validated-once")
        copy = dissection_from_json(dissection_to_json(dis))
        assert copy == dis
        for d in (dis, copy, dis, copy):
            assert certified_bound(d) == F(4, 13)
            assert verify_asymptotic(d, F(3, 10)).overall
            finite_certificate(d, 13)
        # the equal copy is proved on its own, once
        assert validations == ["validated-once"] * 2

    def test_a_refusal_is_never_remembered(self, validations):
        bad = _tampered(dataclasses.replace(BUILTIN, name="refused-each-time"))
        for call in (certified_bound, lambda d: verify_asymptotic(d, F(3, 10)),
                     certified_bound, lambda d: finite_certificate(d, 13)):
            with pytest.raises(InvalidDissection, match="P5"):
                call(bad)
        assert validations == ["refused-each-time"] * 4

    def test_asymptotic_pass_validates_each_copy_once(self):
        """A warm pass of the benchmark's ``asymptotic`` workload validates
        its four loaded copies once each, and the tampered one once more
        when ``certified_bound`` refuses it.  It runs in a fresh
        interpreter, as the benchmark does, so that no dissection another
        test made can take part."""
        proc = subprocess.run([sys.executable, "-c", _PASS_VALIDATIONS], cwd=ROOT,
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                  [str(ROOT / "src"), str(ROOT / "perfbench")])})
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout) == {str(seed): [5, []] for seed in range(1, 9)}


class TestAnalysedOnce:
    """Profiles, rearrangements and the bound are computed once for each
    validated dissection object, whatever m, n and oracle mode ask."""

    @pytest.fixture
    def computed(self, monkeypatch):
        import seshadri.dissection as dissection
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        for name in ("validate_dissection", "height_profile", "monotone_reorder"):
            monkeypatch.setattr(dissection, name, counted(name, getattr(dissection, name)))
        return calls

    # (question, check of its answer on eckl10)
    QUESTIONS = ([(certified_bound, lambda b: b == F(4, 13))]
                 + [(lambda d, m=m: verify_asymptotic(d, m).overall,
                     lambda ok, m=m: ok == (m < F(4, 13))) for m in _seeded_ms(8)]
                 + [(lambda d, n=n, mode=mode: finite_certificate(d, n, mode).scale,
                     lambda scale, n=n: scale == n)
                    for n in (13, 26) for mode in ("none", "exact")])

    def test_each_piece_and_axis_once(self, computed):
        dis = dataclasses.replace(BUILTIN, name="analysed-once")
        copy = dissection_from_json(json.loads(dump_json(dissection_to_json(dis))))
        for ask, check in self.QUESTIONS:
            assert check(ask(dis))
        assert computed["validate_dissection"] == 1
        assert 0 < computed["height_profile"] <= 2 * dis.r
        assert 0 < computed["monotone_reorder"] <= 2 * dis.r
        before = dict(computed)
        for ask, check in self.QUESTIONS:
            assert check(ask(copy))
        # the equal copy is validated and analysed on its own, once
        assert computed["validate_dissection"] == 2
        for name in ("height_profile", "monotone_reorder"):
            assert 0 < computed[name] - before[name] <= 2 * dis.r
        before = dict(computed)
        for d in (dis, copy):
            for ask, check in self.QUESTIONS:
                assert check(ask(d))
        assert computed == before

    def test_validate_and_render_build_no_profile(self, computed):
        from seshadri.render import RenderSpec, render_svg
        dis = dataclasses.replace(BUILTIN, name="never-analysed")
        assert validate_dissection(dis).ok and dis._analysis is not None
        assert render_svg(dis, RenderSpec()).startswith("<svg")
        assert computed["height_profile"] == computed["monotone_reorder"] == 0

    def test_a_refused_copy_computes_nothing(self, computed):
        bad = _tampered(dataclasses.replace(BUILTIN, name="refused"))
        for ask, _check in self.QUESTIONS:
            with pytest.raises(InvalidDissection, match="P5"):
                ask(bad)
        assert computed == {"validate_dissection": len(self.QUESTIONS)}


def test_analysis_builds_one_fraction_per_piece_and_axis(monkeypatch):
    # profiles and rearrangements stay ints: the first crossing's score
    # is the one Fraction a piece's axis needs
    from seshadri import dissection, geometry, reorder
    made = []

    def counted(*args):
        made.append(args)
        return F(*args)
    for module in (geometry, reorder):
        monkeypatch.setattr(module, "Fraction", counted)
    pieces = dissection._Analysis(BUILTIN.polygons()).pieces
    assert len(pieces) == BUILTIN.r
    assert 0 < len(made) <= 2 * BUILTIN.r
    assert min(max(x.score, y.score) for x, y in pieces) == F(4, 13)


class TestNoRehulling:
    """A polygon enters from points only through ``ConvexPolygon.from_json``,
    which checks the stated chain without a hull; cutting builds each side
    as the chain it walks, so validation enters no polygon from points."""

    @pytest.fixture
    def entered(self, monkeypatch):
        calls = []
        real = ConvexPolygon.from_json

        def counted(cls, data):
            calls.append(len(data))
            return real(data)
        monkeypatch.setattr(ConvexPolygon, "from_json", classmethod(counted))
        return calls

    def test_validation_builds_no_hull(self, entered):
        copy = dissection_from_json(dissection_to_json(BUILTIN))
        assert len(entered) == 11  # the region, nine steps and the final piece
        assert validate_dissection(copy).ok
        assert len(entered) == 11

    def test_builtin_enters_no_polygon_from_points(self, entered):
        # it peels the simplex constant, built once at import
        assert builtin_dissection_eckl10() == BUILTIN
        assert entered == []


def _report_reference(dis, m):
    """verify_asymptotic from direct profile calls, with no record."""
    rows = []
    for idx, poly in enumerate(dis.polygons(), start=1):
        candidates = []
        for axis in (Axis.X, Axis.Y):
            profile = height_profile(poly, axis)
            width, sup = ref.length(x_projection(poly, axis)), sup_admissible(profile)
            passed = m < width and m < sup
            check = PolygonCheck(idx, axis, width, sup, passed, profile,
                                 monotone_reorder(profile))
            if passed:
                break
            candidates.append((min(width, sup), check))
        else:
            check = max(candidates, key=lambda c: c[0])[1]
        rows.append(check)
    return AsymptoticReport(m, tuple(rows), all(r.passed for r in rows))


class TestRecordMatchesFreshComputation:
    @pytest.mark.parametrize("dis", [BUILTIN, diagonal_sliver()],
                             ids=["eckl10", "diagonal"])
    def test_axis_data(self, dis):
        import seshadri.dissection as dissection
        analysis = dissection._require_valid(dis)
        pieces = zip(dis.polygons(), analysis.pieces, strict=True)
        for i, (poly, pair) in enumerate(pieces):
            for axis, data in zip((Axis.X, Axis.Y), pair, strict=True):
                assert data.axis is axis, (i, axis)
                profile = height_profile(poly, axis)
                assert data.profile == profile, (i, axis)
                assert data.score == sup_admissible(profile), (i, axis)
                assert data.reordered == monotone_reorder(profile), (i, axis)

    def test_first_crossing_is_within_the_projection(self):
        # an axis's score is its first crossing alone: the profile spans
        # the projection, and the crossing never passes its end
        rng = random.Random(43)
        polygons = BUILTIN.polygons() + diagonal_sliver().polygons()
        polygons += [random_polygon(rng) for _ in range(1000)]
        uncrossed = 0
        for poly in polygons:
            for axis in Axis:
                profile = height_profile(poly, axis)
                width = ref.length(x_projection(poly, axis))
                assert profile.width == width, (poly, axis)
                sup = sup_admissible(profile)
                assert sup <= width, (poly, axis)
                uncrossed += sup == width
        assert uncrossed > 100

    @pytest.mark.parametrize("dis, bound", [(BUILTIN, F(4, 13)), (diagonal_sliver(), 0)],
                             ids=["eckl10", "diagonal"])
    def test_reports_warm_cold_and_direct(self, dis, bound):
        # eckl10's axis scores are 0, 3/13 and 4/13: at and just around the
        # positive ones the strict < and the tie between axes decide the row
        ms = _seeded_ms(13) + [s + d for s in (F(3, 13), F(4, 13))
                               for d in (-F(1, 1300), 0, F(1, 1300))]
        assert certified_bound(dis) == bound
        warm = [dump_json(verify_asymptotic(dis, m).to_json()) for m in ms]
        for m, text in zip(ms, warm):
            cold = dataclasses.replace(dis)
            assert dump_json(verify_asymptotic(cold, m).to_json()) == text
            assert dump_json(_report_reference(dis, m).to_json()) == text
        assert certified_bound(dataclasses.replace(dis)) == bound


class TestFiniteCertificate:
    def test_scale_13_exact(self):
        cert = finite_certificate(BUILTIN, 13, oracle_mode="exact")
        assert [p.m for p in cert.per_polygon] == [4, 4, 4, 4, 4, 4, 4, 3, 4, 4]
        assert cert.min_ratio == F(3, 13)
        assert all(p.m >= 3 for p in cert.per_polygon)
        for p in cert.per_polygon:
            assert p.oracle is not None
            assert p.oracle.non_special and p.oracle.actual_dimension == -1

    @pytest.mark.parametrize("n,dimension", [(13, 8), (104, 316)])
    def test_statement_states_the_exact_dimension(self, n, dimension):
        # (n+1)(n+2)/2 - 1 - sum of m(m+1)/2: 105 - 1 - 96 = 8 at n = 13
        cert = finite_certificate(BUILTIN, n)
        assert cert.statement.endswith(f" is non-special of dimension {dimension}")

    def test_scale_26_exact_cross_validation(self):
        cert = finite_certificate(BUILTIN, 26, oracle_mode="exact")
        assert cert.min_ratio == F(7, 26)
        for p in cert.per_polygon:
            assert p.oracle.non_special and p.oracle.actual_dimension == -1

    def test_witness_points_inside_scaled_polygons(self):
        cert = finite_certificate(BUILTIN, 13)
        for row, poly in zip(cert.per_polygon, BUILTIN.polygons()):
            closure = scaled_points(poly, 13)
            assert set(row.witness.subset) <= set(closure)
            assert row.lattice_count <= len(closure)

    def test_ratio_within_slack_of_bound(self):
        for n in (13, 26):
            cert = finite_certificate(BUILTIN, n)
            assert cert.min_ratio <= certified_bound(BUILTIN) + F(1, n)

    def test_empty_polygon_at_scale_one(self):
        with pytest.raises(EmptyPolygonAtScale):
            finite_certificate(BUILTIN, 1)

    def test_scale_guardrail_counts_the_bounding_box(self, monkeypatch):
        # the unit square around the simplex holds (n + 1)^2 points at scale n
        monkeypatch.setenv("SESHADRI_MAX_CELLS", str(14 ** 2))
        assert finite_certificate(BUILTIN, 13).min_ratio == F(3, 13)
        with pytest.raises(SizeGuardrail, match="n = 14: .* 225 integer points"):
            finite_certificate(BUILTIN, 14)

    def test_seed_determinism(self):
        a = finite_certificate(BUILTIN, 13, oracle_mode="modular", seed=5)
        b = finite_certificate(BUILTIN, 13, oracle_mode="modular", seed=5)
        assert a == b

    def test_certificate_json_round_trip(self):
        cert = finite_certificate(BUILTIN, 13, oracle_mode="modular", seed=1)
        blob = dump_json(cert.to_json())
        again = FiniteCertificate.from_json(json.loads(blob))
        assert again == cert
        assert again.to_json() == json.loads(blob)
        assert dump_json(again.to_json()) == blob
        # both directions occur at this scale
        assert {p.witness.direction for p in again.per_polygon} == set(Direction)

    def test_cost_guard_at_208(self, monkeypatch):
        """Witnesses are written as runs, mode none builds no witness subset,
        and it expands the points of no lattice set: every step works on
        runs."""
        expanded, points = [], []
        expand, points_of = lattice._expand, lattice._points_of

        def counted(direction, runs):
            expanded.append(runs)
            return expand(direction, runs)

        def counted_points(runs):
            points.append(runs)
            return points_of(runs)

        monkeypatch.setattr(lattice, "_expand", counted)
        monkeypatch.setattr(lattice, "_points_of", counted_points)
        cert = finite_certificate(BUILTIN, 208, "none")
        assert len(dump_json(cert.to_json())) < 100_000
        assert expanded == []
        assert points == []

    def test_modular_cost_guard_at_208(self, monkeypatch):
        """The staircase test reads each witness's runs: a modular
        certificate expands the points of no lattice set."""
        points = []
        points_of = lattice._points_of

        def counted_points(runs):
            points.append(runs)
            return points_of(runs)

        monkeypatch.setattr(lattice, "_points_of", counted_points)
        cert = finite_certificate(BUILTIN, 208, "modular")
        assert all(row.oracle == _staircase_verdict(row.m, "modular")
                   for row in cert.per_polygon)
        assert points == []


def _p9(chain):
    """eckl10's file with P9's stated chain replaced by ``chain``, a list
    of the indices of P9's vertices or of literal vertices."""
    data = dissection_to_json(BUILTIN)
    vs = data["steps"][8]["polygon"]
    data["steps"][8]["polygon"] = [vs[v] if type(v) is int else v for v in chain]
    return data


# name: (P9's chain, the fault named); P9 is the pentagon 0..4
BAD_CHAINS = {
    "pentagram": ([0, 2, 4, 1, 3], "the vertices wind around 2 times"),
    "repeated vertex": ([0, 1, 1, 2, 3, 4], "vertex 2 repeats a neighbour"),
    "collinear middle vertex": ([0, ["9/26", "0"], 1, 2, 3, 4],
                                "vertex 2 is collinear with its neighbours"),
    "interior point": ([0, ["9/26", "2/13"], 1, 2, 3, 4], "vertex 2 turns the other way"),
    "two vertices": ([0, 1], "polygon needs at least three vertices"),
}


class TestStrictChains:
    """A stated polygon is its vertex chain: strictly convex, winding once,
    from any vertex and in either orientation; no hull repairs it."""

    @pytest.mark.parametrize("name", sorted(BAD_CHAINS))
    def test_refused_naming_the_polygon(self, name):
        chain, fault = BAD_CHAINS[name]
        with pytest.raises(ValueError, match=rf"^step 9 polygon .* is not valid: {fault}"):
            dissection_from_json(_p9(chain))

    @pytest.mark.parametrize("chain", [[2, 3, 4, 0, 1], [4, 3, 2, 1, 0], [1, 0, 4, 3, 2]])
    def test_rotated_or_clockwise_chain_loads_canonical(self, chain):
        copy = dissection_from_json(_p9(chain))
        assert copy == BUILTIN and copy.steps[8].peeled.pairs[0] == (8, 0)
        assert validate_dissection(copy).ok

    def test_unreduced_literals_load_in_lowest_terms(self):
        # "4/13" as "12/39" and so on: P9 is still stated over 26
        def tripled(r):
            return f"{F(r).numerator * 3}/{F(r).denominator * 3}"
        data = _p9([[tripled(x), tripled(y)] for x, y in _p9(range(5))["steps"][8]["polygon"]])
        assert data["steps"][8]["polygon"][0] == ["12/39", "0/3"]
        copy = dissection_from_json(data)
        assert copy == BUILTIN and copy.steps[8].peeled.den == 26


class TestDissectionFiles:
    def test_round_trip_builtin(self):
        blob = dump_json(dissection_to_json(BUILTIN))
        again = dissection_from_json(json.loads(blob))
        assert again == BUILTIN
        assert dump_json(dissection_to_json(again)) == blob

    def test_vertex_must_be_a_pair(self):
        data = dissection_to_json(BUILTIN)
        data["region"] = ["00", ["1", "0"], "01"]
        with pytest.raises(ValueError, match=r"^region .* vertex 1 '00' is not a list of 2"):
            dissection_from_json(data)
        data["region"] = [["0", "0", "0"], ["1", "0"], ["0", "1"]]
        with pytest.raises(ValueError, match=r"vertex 1 \['0', '0', '0'\] is not a list"):
            dissection_from_json(data)

    @pytest.mark.parametrize("region", [
        [["1", "0"], ["0", "1"], ["0", "0"]],
        [["0", "0"], ["0", "1"], ["1", "0"]],
        [["0", "1"], ["1", "0"], ["0", "0"]],
        [["0/5", "0"], ["2/2", "0"], ["0", "3/3"]],
    ], ids=["rotated", "clockwise", "rotated clockwise", "unreduced"])
    def test_simplex_stated_any_way_round_loads(self, region):
        data = dissection_to_json(BUILTIN)
        data["region"] = region
        copy = dissection_from_json(data)
        assert copy == BUILTIN and validate_dissection(copy).ok
        assert dissection_to_json(copy)["region"] == [["0", "0"], ["1", "0"], ["0", "1"]]

    def test_refused_value_is_shown_abridged(self):
        # eckl10's whole file given where its object belongs
        with pytest.raises(ValueError) as refusal:
            dissection_from_json([dissection_to_json(BUILTIN)])
        message = str(refusal.value)
        assert message.startswith("dissection [{'final': [...], 'name': 'eckl10', ")
        assert message.endswith(" is not an object") and len(message) < 120

    def test_rational_strings_in_file(self):
        data = dissection_to_json(BUILTIN)
        assert data["region"][0] == ["0", "0"]
        assert ["9/13", "4/13"] in data["steps"][1]["polygon"]


class TestStrictCertificateLoaders:
    """Certificate loaders refuse mistyped fields instead of coercing them."""

    CERT = finite_certificate(BUILTIN, 13, oracle_mode="modular").to_json()
    ROW = CERT["per_polygon"][0]
    VERDICT = ROW["oracle"]
    WITNESS = ROW["witness"]
    BAD_INTS = (1.9, True, "3")
    BAD_BOOLS = ("false", 1, None)
    BAD_STRS = (7, None, ["x"])
    BAD_RATIONALS = (0.25, True, "0.25")

    @staticmethod
    def _refused(loader, data, path, bad, name=None):
        """Set data[path] to bad: loading must fail naming the field."""
        data = json.loads(json.dumps(data))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = bad
        with pytest.raises(ValueError, match=re.escape(f"{name or path[-1]} {bad!r} ")):
            loader(data)

    def test_mistyped_verdict_refused(self):
        verdict = dict(self.CERT["per_polygon"][0]["oracle"],
                       non_special="false", actual_dimension=1.9, rank=True)
        with pytest.raises(ValueError):
            OracleVerdict.from_json(verdict)

    @pytest.mark.parametrize("field", ["actual_dimension", "expected_dimension",
                                       "rank", "prime", "seed"])
    def test_verdict_integers(self, field):
        verdict = self.CERT["per_polygon"][0]["oracle"]
        for bad in self.BAD_INTS:
            self._refused(OracleVerdict.from_json, verdict, [field], bad)

    def test_verdict_non_special(self):
        verdict = self.CERT["per_polygon"][0]["oracle"]
        for bad in self.BAD_BOOLS:
            self._refused(OracleVerdict.from_json, verdict, ["non_special"], bad)

    def test_verdict_optional_fields_accept_null(self):
        verdict = dict(self.CERT["per_polygon"][0]["oracle"], prime=None, seed=None,
                       caveat=None)
        assert OracleVerdict.from_json(verdict).prime is None

    @pytest.mark.parametrize("loader,data,key,bads", [
        (OracleVerdict.from_json, VERDICT, "method", BAD_STRS),
        (OracleVerdict.from_json, VERDICT, "caveat", (7, ["x"])),
        (FiniteCertificate.from_json, CERT, "dissection", BAD_STRS),
        (FiniteCertificate.from_json, CERT, "oracle_mode", BAD_STRS),
        (FiniteCertificate.from_json, CERT, "tool_version", BAD_STRS),
    ], ids=["method", "caveat", "dissection", "oracle_mode", "tool_version"])
    def test_strings(self, loader, data, key, bads):
        for bad in bads:
            self._refused(loader, data, [key], bad)

    @pytest.mark.parametrize("loader,data,key,bad", [
        (OracleVerdict.from_json, VERDICT, "method", "exact"),
        (FiniteCertificate.from_json, CERT, "oracle_mode", "fast"),
        (WitnessSelection.from_json, WITNESS, "direction", "diagonal"),
    ], ids=["method", "oracle_mode", "direction"])
    def test_choices(self, loader, data, key, bad):
        self._refused(loader, data, [key], bad)

    def test_rationals(self):
        for bad in self.BAD_RATIONALS:
            self._refused(FiniteCertificate.from_json, self.CERT, ["min_ratio"], bad)

    def test_rationals_accept_json_integers(self):
        # read as the rational 0, then refused for what it states
        data = dict(self.CERT, min_ratio=0)
        with pytest.raises(ValueError, match=re.escape(
                "min_ratio 0 is not the least row m over the scale, 3/13")):
            FiniteCertificate.from_json(data)

    @pytest.mark.parametrize("loader,data,path,name", [
        (ref.pl_from_json, {"breakpoints": ["0", "1/2", "1"],
                            "values": ["0", "1", "0"]}, ["breakpoints", 1],
         "breakpoint"),
        (ref.pl_from_json, {"breakpoints": ["0", "1"], "values": ["0", "1"]},
         ["values", 0], "value"),
        (lambda d: verify_asymptotic(BUILTIN, d["m"]), {"m": "3/10"}, ["m"], "m"),
    ], ids=["breakpoints", "values", "verify_asymptotic"])
    def test_library_rationals(self, loader, data, path, name):
        loader(data)
        for bad in (0.1, True):
            self._refused(loader, data, path, bad, name)

    def test_finite_certificate_scale(self):
        for bad in (13.0, True):
            self._refused(lambda d: finite_certificate(BUILTIN, d["n"]), {"n": 13},
                          ["n"], bad)

    @pytest.mark.parametrize("path,name", [(["m"], "m"),
                                           (["runs", 0, 0], "run 1 line"),
                                           (["runs", 0, 1], "run 1 first"),
                                           (["runs", 0, 2], "run 1 count")])
    def test_witness_integers(self, path, name):
        for bad in self.BAD_INTS + (2.0, "1"):
            self._refused(WitnessSelection.from_json, self.WITNESS, path, bad, name)

    @pytest.mark.parametrize("path,bad,name", [
        (["runs", 3, 2], 0, "run 4 count"),
        (["runs", 1, 1], -1, "run 2 first"),
        (["runs", 0], [0, 0], "run 1"),
        (["runs", 0], [0, 0, 4, 0], "run 1"),
        (["runs", 0], "004", "run 1"),
        (["runs"], "0 0 4", "runs"),
    ], ids=["count 0", "negative", "2 items", "4 items", "string", "runs string"])
    def test_witness_runs(self, path, bad, name):
        assert self.WITNESS["runs"] == [[0, 0, 4], [1, 0, 3], [2, 0, 2], [3, 0, 1]]
        self._refused(WitnessSelection.from_json, self.WITNESS, path, bad, name)

    @pytest.mark.parametrize("runs,message", [
        ([[0, 0, 2], [0, 1, 2], [1, 0, 3], [2, 0, 2], [3, 0, 1]],
         "run 2 [0, 1, 2] overlaps or touches the run before it"),
        ([[0, 0, 2], [0, 2, 2], [1, 0, 3], [2, 0, 2], [3, 0, 1]],
         "run 2 [0, 2, 2] overlaps or touches the run before it"),
        ([[1, 0, 3], [0, 0, 4], [2, 0, 2], [3, 0, 1]], "run 2 [0, 0, 4] is out of order"),
        ([[0, 0, 4], [1, 0, 2], [2, 0, 2], [3, 0, 1]], "exactly 1..m points"),
        ([[0, 0, 4], [1, 0, 3], [2, 0, 2], [3, 0, 1], [4, 0, 1]], "exactly 1..m points"),
        ([[0, 0, 4], [1, 0, 3], [2, 0, 3]], "exactly 1..m points"),
    ], ids=["overlapping", "touching", "unsorted", "shortened", "extra line", "sizes"])
    def test_witness_runs_not_canonical(self, runs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            WitnessSelection.from_json(dict(self.WITNESS, runs=runs))

    def test_witness_runs_with_gaps(self):
        w = WitnessSelection.from_json(dict(self.WITNESS, runs=[
            [0, 0, 2], [0, 3, 2], [1, 0, 3], [2, 0, 2], [3, 0, 1]]))
        assert (0, 2) not in w.subset and (0, 4) in w.subset
        assert ref.assignment(w) == ((0, 4), (1, 3), (2, 2), (3, 1))

    def test_witness_over_the_cell_cap(self, monkeypatch):
        expanded = []
        monkeypatch.setattr(lattice, "_expand", lambda *args: expanded.append(args))
        WitnessSelection.from_json(self.WITNESS)
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "9")
        with pytest.raises(SizeGuardrail, match="m = 4 states 10 points"):
            WitnessSelection.from_json(self.WITNESS)
        monkeypatch.delenv("SESHADRI_MAX_CELLS")
        # a few bytes may claim any size: the claim is refused unread
        with pytest.raises(SizeGuardrail, match="m = 1000000000000 "):
            WitnessSelection.from_json(dict(self.WITNESS, m=10**12))
        assert expanded == []

    @pytest.mark.parametrize("changes,message", [
        ({"m": 5}, "polygon 1: m 5 is not its witness's m 4"),
        ({"m": 3}, "polygon 1: m 3 is not its witness's m 4"),
        ({"lattice_count": 9}, "polygon 1: lattice_count 9 is below the 10 points"),
        ({"m": 5, "lattice_count": 1}, "polygon 1: m 5 is not its witness's m 4"),
    ], ids=["m above", "m below", "lattice_count", "both"])
    def test_row_agrees_with_its_witness(self, changes, message):
        assert PolygonWitness.from_json(dict(self.ROW, lattice_count=10)).lattice_count == 10
        with pytest.raises(ValueError, match=re.escape(message)):
            PolygonWitness.from_json(dict(self.ROW, **changes))
        data = json.loads(json.dumps(self.CERT))
        data["per_polygon"][0].update(changes)
        with pytest.raises(ValueError, match=re.escape(message)):
            FiniteCertificate.from_json(data)

    @pytest.mark.parametrize("field", ["polygon", "lattice_count", "m"])
    def test_polygon_integers(self, field):
        row = self.CERT["per_polygon"][0]
        for bad in self.BAD_INTS:
            self._refused(PolygonWitness.from_json, row, [field], bad)

    @pytest.mark.parametrize("field", ["scale", "degree", "seed"])
    def test_certificate_integers(self, field):
        for bad in self.BAD_INTS:
            self._refused(FiniteCertificate.from_json, self.CERT, [field], bad)

    @pytest.mark.parametrize("path,bad,shown", [
        (["per_polygon"], "P1", "per_polygon 'P1' is not a list"),
        (["per_polygon"], {"polygon": 1}, "per_polygon {'polygon': 1} is not a list"),
        (["per_polygon", 0], [1, 10], "per_polygon row [1, 10] is not"),
        (["per_polygon", 0, "witness"], [4], "witness [4] is not an object"),
        (["per_polygon", 0, "oracle"], [-1], "oracle [-1] is not an object"),
        (["min_ratio"], None, "certificate has no 'min_ratio'"),
        (["per_polygon", 0, "lattice_count"], None, "per_polygon row has no 'lattice_count'"),
        (["per_polygon", 0, "witness", "runs"], None, "witness has no 'runs'"),
        (["per_polygon", 0, "oracle", "method"], None, "oracle has no 'method'"),
        (["per_polygon", 0, "oracle", "rank"], None, "oracle has no 'rank'"),
        (["per_polygon", 0, "oracle", "prime"], None, "oracle has no 'prime'"),
        (["per_polygon", 0, "oracle", "caveat"], None, "oracle has no 'caveat'"),
        (["per_polygon", 0, "oracle", "seed"], None, "oracle has no 'seed'"),
        (["per_polygon", 0, "oracle"], None, "per_polygon row has no 'oracle'"),
    ], ids=["per_polygon string", "per_polygon object", "row list",
            "witness list", "oracle list", "no min_ratio", "row without lattice_count",
            "witness without runs", "oracle without method", "oracle without rank",
            "oracle without prime", "oracle without caveat", "oracle without seed",
            "row without oracle"])
    def test_structure_refused_naming_the_field(self, path, bad, shown):
        """A mistyped object or list, or a missing key (``bad`` None),
        raises ValueError naming it, not TypeError or a bare KeyError."""
        data = json.loads(json.dumps(self.CERT))
        target = data
        for key in path[:-1]:
            target = target[key]
        if bad is None:
            del target[path[-1]]
        else:
            target[path[-1]] = bad
        with pytest.raises(ValueError, match=re.escape(shown)):
            FiniteCertificate.from_json(data)

    @pytest.mark.parametrize("bad,shown", [
        (0, "oracle 0 is not an object"),
        (False, "oracle False is not an object"),
        ("", "oracle '' is not an object"),
        ([], "oracle [] is not an object"),
        ({}, "oracle has no 'actual_dimension'"),
    ], ids=["zero", "false", "empty string", "empty list", "empty object"])
    def test_only_null_oracle_means_no_verdict(self, bad, shown):
        assert PolygonWitness.from_json(dict(self.ROW, oracle=None)).oracle is None
        with pytest.raises(ValueError, match=re.escape(shown)):
            PolygonWitness.from_json(dict(self.ROW, oracle=bad))

    @pytest.mark.parametrize("m", [0, -1])
    def test_empty_witness_refused(self, m):
        witness = {"m": m, "direction": "vertical", "runs": []}
        message = f"witness size m = {m} is not positive"
        with pytest.raises(ValueError, match=re.escape(message)):
            WitnessSelection.from_json(witness)
        data = json.loads(json.dumps(self.CERT))
        data["per_polygon"][0].update(m=m, lattice_count=0, witness=witness)
        with pytest.raises(ValueError, match=re.escape(message)):
            FiniteCertificate.from_json(data)

    @pytest.mark.parametrize("changes,message", [
        ({"degree": 99}, "degree 99 is not the scale 13"),
        ({"scale": 0, "degree": 0}, "scale 0 is not positive"),
        ({"min_ratio": "4/13"}, "min_ratio 4/13 is not the least row m over the scale, 3/13"),
        ({"min_ratio": "3/26"}, "min_ratio 3/26 is not the least row m over the scale, 3/13"),
        ({"per_polygon": []}, "per_polygon is empty"),
    ], ids=["degree", "scale", "min_ratio above", "min_ratio below", "no rows"])
    def test_certificate_contradicting_itself_refused(self, changes, message):
        assert FiniteCertificate.from_json(self.CERT).min_ratio == F(3, 13)
        with pytest.raises(ValueError, match=re.escape(message)):
            FiniteCertificate.from_json(dict(self.CERT, **changes))

    def test_verdict_contradicting_its_dimensions_refused(self):
        assert self.VERDICT["non_special"] is True
        message = ("oracle non_special False contradicts actual_dimension -1 "
                   "and expected_dimension -1")
        with pytest.raises(ValueError, match=re.escape(message)):
            OracleVerdict.from_json(dict(self.VERDICT, non_special=False))
        data = json.loads(json.dumps(self.CERT))
        data["per_polygon"][0]["oracle"]["expected_dimension"] = 0
        with pytest.raises(ValueError, match="oracle non_special True contradicts"):
            FiniteCertificate.from_json(data)

    LAST = len(CERT["per_polygon"])

    @staticmethod
    def _set(path, value):
        def edit(data):
            target = data
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        return edit

    @staticmethod
    def _swap_rows(data):
        rows = data["per_polygon"]
        rows[0], rows[1] = rows[1], rows[0]

    @pytest.mark.parametrize("mode,edit,message", [
        ("modular", _set(["per_polygon", 1, "polygon"], 3), "row 2: polygon 3 is not 2"),
        ("modular", _swap_rows, "row 1: polygon 2 is not 1"),
        ("modular", _set(["tool_version"], "0.5.0"),
         f"tool_version '0.5.0' is not one of ({__version__!r},)"),
        ("modular", _set(["per_polygon", 0, "lattice_count"], 11),
         "lattice_count sum 106 is not the 105 monomials of degree 13"),
        ("modular", _set(["per_polygon", LAST - 1, "lattice_count"], 14),
         "lattice_count sum 104 is not the 105 monomials of degree 13"),
        ("none", _set(["per_polygon", 2, "oracle"], VERDICT),
         "row 3: oracle method modular is not None"),
        ("modular", _set(["per_polygon", 2, "oracle"], None),
         "row 3: oracle method None is not modular"),
        ("exact", _set(["per_polygon", 0, "oracle"], None),
         "row 1: oracle method None is not exact-rational"),
        ("modular", _set(["per_polygon", 0, "oracle", "method"], "exact-rational"),
         "row 1: oracle method exact-rational is not modular"),
        ("exact", _set(["per_polygon", 0, "oracle", "method"], "modular"),
         "row 1: oracle method modular is not exact-rational"),
        ("modular", _set(["per_polygon", 0, "oracle", "rank"], 9),
         "row 1: oracle rank 9 is not 10"),
        ("modular", _set(["per_polygon", 0, "oracle", "seed"], 0),
         "row 1: oracle seed 0 is not None"),
        ("modular", _set(["statement"], CERT["statement"].replace("3, 4, 4)", "4, 4, 4)")),
         "4, 4, 4) at 10 very general points is non-special of dimension 8' is not "
         "its rows', 'the degree-13 plane system with multiplicities "
         "(4, 4, 4, 4, 4, 4, 4, 3, 4, 4) at"),
        ("modular", _set(["statement"], CERT["statement"].replace("dimension 8", "dimension 9")),
         "non-special of dimension 9' is not its rows', 'the degree-13 plane system "),
        ("modular", _set(["statement"], 13), "statement 13 is not a string"),
    ], ids=["polygon", "rows swapped", "tool_version", "lattice_count sum above",
            "lattice_count sum below", "verdict in none", "no verdict in modular",
            "no verdict in exact", "method in modular", "method in exact",
            "rank", "seed", "statement", "statement dimension",
            "statement type"])
    def test_rows_that_contradict_the_certificate_refused(self, mode, edit, message):
        data = finite_certificate(BUILTIN, 13, oracle_mode=mode).to_json()
        FiniteCertificate.from_json(data)
        edit(data)
        with pytest.raises(ValueError, match=re.escape(message)):
            FiniteCertificate.from_json(data)

    # the caveat of row 1's 0.6.0 verdict at n = 13, from an odd determinant
    GF2_CAVEAT = _GF2_FULL

    @pytest.mark.parametrize("mode,changes,message", [
        ("exact", {"prime": 97}, "row 1: oracle prime 97 is not None"),
        ("modular", {"prime": 2}, "row 1: oracle prime 2 is not None"),
        ("modular", {"prime": 2**61 - 1}, f"row 1: oracle prime {2**61 - 1} is not None"),
        ("exact", {"prime": 2, "caveat": GF2_CAVEAT}, "row 1: oracle prime 2 is not None"),
        ("modular", {"caveat": GF2_CAVEAT}, f"row 1: oracle caveat {GF2_CAVEAT} is not "
                                            "staircase: m parallel lines"),
        ("modular", {"caveat": None}, "row 1: oracle caveat None is not staircase:"),
        ("modular", {"rank": 11, "actual_dimension": -2, "non_special": False},
         "row 1: oracle actual_dimension -2 is not -1"),
        ("exact", {"rank": -1, "actual_dimension": 10, "non_special": False},
         "row 1: oracle actual_dimension 10 is not -1"),
        ("exact", {"rank": 9}, "row 1: oracle rank 9 is not 10"),
    ], ids=["exact prime 97", "modular prime 2", "modular prime 2^61 - 1",
            "0.6.0 verdict", "modular caveat", "no caveat", "rank 11 of 10 points",
            "rank -1", "rank 9 in exact"])
    def test_verdict_is_re_derived(self, mode, changes, message):
        # row 1's witness at n = 13 has m = 4: 10 points, and rank 10
        data = finite_certificate(BUILTIN, 13, oracle_mode=mode).to_json()
        assert data["per_polygon"][0]["m"] == 4
        FiniteCertificate.from_json(data)
        data["per_polygon"][0]["oracle"].update(changes)
        with pytest.raises(ValueError, match=re.escape(message)):
            FiniteCertificate.from_json(data)

    def test_verdict_of_a_one_point_system(self):
        # expected_dimension 0 with actual_dimension 0 passes the non_special
        # check, but a witness system's dimensions are -1
        data = json.loads(json.dumps(self.CERT))
        data["per_polygon"][0]["oracle"].update(expected_dimension=0, actual_dimension=0)
        with pytest.raises(ValueError,
                           match=re.escape("row 1: oracle actual_dimension 0 is not -1")):
            FiniteCertificate.from_json(data)

    def test_certificate_must_be_an_object(self):
        with pytest.raises(ValueError, match=r"^certificate \[\] is not an object"):
            FiniteCertificate.from_json([])

    def test_nested_fields_refused_through_the_certificate(self):
        for path in (["per_polygon", 2, "oracle", "rank"],
                     ["per_polygon", 2, "witness", "m"],
                     ["per_polygon", 2, "lattice_count"]):
            self._refused(FiniteCertificate.from_json, self.CERT, path, 2.0)
