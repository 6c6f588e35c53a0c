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

from seshadri.certify import (BUILTIN_POINT_TABLE, CutStep, Dissection,
                              EmptyPolygonAtScale, InvalidDissection,
                              builtin_dissection_eckl10, certified_bound,
                              dissection_from_json, dissection_to_json,
                              dump_json, finite_certificate,
                              validate_dissection, verify_asymptotic,
                              FiniteCertificate)
from seshadri.geometry import (AffineForm, Axis, height_profile, make_polygon,
                               point, x_projection)
from seshadri.certify import AsymptoticReport, PolygonCheck, PolygonWitness
from seshadri.reorder import PiecewiseLinear, monotone_reorder, sup_admissible
from seshadri.lattice import WitnessSelection, scaled_points
from seshadri.oracle import OracleVerdict, SizeGuardrail

ROOT = Path(__file__).resolve().parent.parent
BUILTIN = builtin_dissection_eckl10()
SIMPLEX = make_polygon([(0, 0), (1, 0), (0, 1)])


def _validate_reference(dis):
    """The former validator: cut signs, area partition and containment.

    It reconciles the stated pieces with the cuts instead of re-deriving
    them; a dissection passes it exactly when every stated piece is the
    piece its cut peels.
    """
    v = []
    polys = dis.polygons()
    if not dis.region.in_first_quadrant():
        v.append("region leaves the first quadrant")
    for idx, poly in enumerate(polys, start=1):
        if not poly.in_first_quadrant():
            v.append(f"P{idx} leaves the first quadrant")
        for vert in poly.vertices:
            if not dis.region.contains(vert):
                v.append(f"P{idx} vertex {vert} lies outside the region")
    total = sum((p.area for p in polys), F(0))
    if total != dis.region.area:
        v.append(f"areas sum to {total}, region has {dis.region.area}")
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
    neg = make_polygon([(0, 0), (F(1, 2), 0), (0, F(1, 2))])
    pos = make_polygon([(F(1, 2), 0), (1, 0), (0, 1), (0, F(1, 2))])
    return Dissection("half", SIMPLEX, (CutStep(cut, neg),), pos)


def toy_sliver():
    """Simplex with a width-1/100 sliver peeled off the left edge."""
    cut = AffineForm(F(-1, 100), 1, 0)
    neg = make_polygon([(0, 0), (F(1, 100), 0), (F(1, 100), F(99, 100)), (0, 1)])
    pos = make_polygon([(F(1, 100), 0), (1, 0), (F(1, 100), F(99, 100))])
    return Dissection("sliver", SIMPLEX, (CutStep(cut, neg),), pos)


def diagonal_sliver():
    """One thin diagonal piece whose certified bound is 0."""
    sliver = make_polygon([(0, 0), (F(7, 13), F(5, 13)), (F(5, 13), F(7, 13))])
    return Dissection("diagonal", sliver, (), sliver)


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
        assert sum(p.area for p in BUILTIN.polygons()) == F(1, 2)

    def test_flipped_cut_sign_detected(self):
        step2 = BUILTIN.steps[1]
        flipped = CutStep(AffineForm(-step2.cut.r0, -step2.cut.r1, -step2.cut.r2),
                          step2.peeled)
        bad = Dissection(BUILTIN.name, BUILTIN.region,
                         BUILTIN.steps[:1] + (flipped,) + BUILTIN.steps[2:],
                         BUILTIN.final)
        report = validate_dissection(bad)
        assert not report.ok
        assert any("cut 2" in v for v in report.violations)

    def test_overlap_detected(self):
        bad = Dissection("overlap", SIMPLEX, BUILTIN.steps[:1], SIMPLEX)
        report = validate_dissection(bad)
        assert not report.ok
        assert any("P2 is not the remainder" in v for v in report.violations)

    def test_repeated_cut_named(self):
        bad = Dissection(BUILTIN.name, BUILTIN.region,
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
        failing = report.failing()
        assert failing
        assert set(failing) & {1, 6, 7, 8, 9, 10}

    def test_weak_bound_passes(self):
        assert verify_asymptotic(BUILTIN, F(1, 13)).overall

    def test_accepted_m_implies_strict_chord(self):
        report = verify_asymptotic(BUILTIN, F(3, 10))
        for check in report.per_polygon:
            poly = BUILTIN.polygons()[check.polygon - 1]
            assert x_projection(poly, check.axis).length > F(3, 10)
            assert max(height_profile(poly, check.axis).values) > F(3, 10)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            verify_asymptotic(BUILTIN, 0)

    def test_rejects_invalid_dissection(self):
        bad = Dissection("overlap", SIMPLEX, BUILTIN.steps[:1], SIMPLEX)
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
        # yet scale-n witnesses still exist
        dis = diagonal_sliver()
        assert validate_dissection(dis).ok
        assert certified_bound(dis) == 0
        cert = finite_certificate(dis, 13)
        assert cert.per_polygon[0].m >= 1
        assert cert.per_polygon[0].deviation == 0

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
_PASS_VALIDATIONS = """
import json
import seshadri.certify as certify
from workloads import Asymptotic, Runner

calls = []
validate = certify.validate_dissection

def counted(dis):
    calls.append(dis.name)
    return validate(dis)

certify.validate_dissection = counted
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
        import seshadri.certify as certify
        calls = []

        def counted(dis):
            calls.append(dis.name)
            return validate_dissection(dis)
        monkeypatch.setattr(certify, "validate_dissection", counted)
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
        import seshadri.certify as certify
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        for name in ("validate_dissection", "height_profile", "monotone_reorder"):
            monkeypatch.setattr(certify, name, counted(name, getattr(certify, name)))
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

    def test_a_refused_copy_computes_nothing(self, computed):
        bad = _tampered(dataclasses.replace(BUILTIN, name="refused"))
        for ask, _check in self.QUESTIONS:
            with pytest.raises(InvalidDissection, match="P5"):
                ask(bad)
        assert computed == {"validate_dissection": len(self.QUESTIONS)}


class TestNoRehulling:
    """Cutting builds each side as the chain it walks: a hull is built only
    for the builtin's region, never for a derived piece."""

    @pytest.fixture
    def hulls(self, monkeypatch):
        import seshadri.certify as certify
        import seshadri.geometry as geometry
        calls = []

        def counted(module):
            real = module.make_polygon

            def wrapper(points):
                calls.append(module.__name__)
                return real(points)
            return wrapper
        for module in (geometry, certify):
            monkeypatch.setattr(module, "make_polygon", counted(module))
        return calls

    def test_validation_builds_no_hull(self, hulls):
        copy = dissection_from_json(dissection_to_json(BUILTIN))
        hulls.clear()  # loading builds one hull per stated polygon
        assert validate_dissection(copy).ok
        assert hulls == []

    def test_builtin_builds_one_hull_for_its_region(self, hulls):
        assert builtin_dissection_eckl10() == BUILTIN
        assert hulls == ["seshadri.certify"]


def _report_reference(dis, m):
    """verify_asymptotic from direct profile calls, with no record."""
    rows = []
    for idx, poly in enumerate(dis.polygons(), start=1):
        candidates = []
        for axis in (Axis.X, Axis.Y):
            profile = height_profile(poly, axis)
            width, sup = x_projection(poly, axis).length, sup_admissible(profile)
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
        import seshadri.certify as certify
        analysis = certify._require_valid(dis)
        for i, poly in enumerate(dis.polygons()):
            for axis in (Axis.X, Axis.Y):
                data = analysis.axis(i, axis)
                profile = height_profile(poly, axis)
                assert data.profile == profile, (i, axis)
                assert data.width == x_projection(poly, axis).length, (i, axis)
                assert data.sup == sup_admissible(profile), (i, axis)
                assert data.reordered == monotone_reorder(profile), (i, axis)

    @pytest.mark.parametrize("dis, bound", [(BUILTIN, F(4, 13)), (diagonal_sliver(), 0)],
                             ids=["eckl10", "diagonal"])
    def test_reports_warm_cold_and_direct(self, dis, bound):
        ms = _seeded_ms(13)
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
        assert cert.per_polygon[-1].role == "final"
        assert cert.per_polygon[-1].padding_ok is True

    def test_scale_26_exact_cross_validation(self):
        cert = finite_certificate(BUILTIN, 26, oracle_mode="exact")
        assert cert.min_ratio == F(7, 26)
        for p in cert.per_polygon:
            assert p.oracle.non_special and p.oracle.actual_dimension == -1

    def test_witness_points_inside_scaled_polygons(self):
        cert = finite_certificate(BUILTIN, 13)
        for row, poly in zip(cert.per_polygon, BUILTIN.polygons()):
            closure = scaled_points(poly, 13)
            assert row.witness.subset.issubset(closure)
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
        assert dump_json(again.to_json()) == blob


class TestDissectionFiles:
    def test_round_trip_builtin(self):
        blob = dump_json(dissection_to_json(BUILTIN))
        again = dissection_from_json(json.loads(blob))
        assert again == BUILTIN
        assert dump_json(dissection_to_json(again)) == blob

    def test_rational_strings_in_file(self):
        data = dissection_to_json(BUILTIN)
        assert data["region"][0] == ["0", "0"]
        assert ["9/13", "4/13"] in data["steps"][1]["polygon"]


class TestStrictCertificateLoaders:
    """Certificate loaders refuse mistyped fields instead of coercing them."""

    CERT = finite_certificate(BUILTIN, 13, oracle_mode="modular").to_json()
    ROW = CERT["per_polygon"][0]
    VERDICT = ROW["oracle"]
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
        (PolygonWitness.from_json, ROW, "role", BAD_STRS),
        (FiniteCertificate.from_json, CERT, "dissection", BAD_STRS),
        (FiniteCertificate.from_json, CERT, "oracle_mode", BAD_STRS),
        (FiniteCertificate.from_json, CERT, "tool_version", BAD_STRS),
    ], ids=["method", "caveat", "role", "dissection", "oracle_mode", "tool_version"])
    def test_strings(self, loader, data, key, bads):
        for bad in bads:
            self._refused(loader, data, [key], bad)

    @pytest.mark.parametrize("loader,data,key,bad", [
        (OracleVerdict.from_json, VERDICT, "method", "exact"),
        (PolygonWitness.from_json, ROW, "role", "final-ish"),
        (FiniteCertificate.from_json, CERT, "oracle_mode", "fast"),
    ], ids=["method", "role", "oracle_mode"])
    def test_choices(self, loader, data, key, bad):
        self._refused(loader, data, [key], bad)

    @pytest.mark.parametrize("loader,data,path", [
        (PolygonWitness.from_json, ROW, ["deviation"]),
        (FiniteCertificate.from_json, CERT, ["min_ratio"]),
        (FiniteCertificate.from_json, CERT, ["per_polygon", 0, "deviation"]),
    ], ids=["deviation", "min_ratio", "nested deviation"])
    def test_rationals(self, loader, data, path):
        for bad in self.BAD_RATIONALS:
            self._refused(loader, data, path, bad, path[-1])

    def test_rationals_accept_json_integers(self):
        data = json.loads(json.dumps(self.CERT))
        data["per_polygon"][0]["deviation"] = 0
        assert FiniteCertificate.from_json(data).per_polygon[0].deviation == 0

    @pytest.mark.parametrize("loader,data,path,name", [
        (PiecewiseLinear.from_json, {"breakpoints": ["0", "1/2", "1"],
                                     "values": ["0", "1", "0"]}, ["breakpoints", 1],
         "breakpoint"),
        (PiecewiseLinear.from_json, {"breakpoints": ["0", "1"], "values": ["0", "1"]},
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
                                           (["assignment", 0, 0], "assignment line"),
                                           (["assignment", 0, 1], "assignment size")])
    def test_witness_integers(self, path, name):
        witness = self.CERT["per_polygon"][0]["witness"]
        for bad in self.BAD_INTS:
            self._refused(WitnessSelection.from_json, witness, path, bad, name)

    @pytest.mark.parametrize("field", ["polygon", "lattice_count", "m"])
    def test_polygon_integers(self, field):
        row = self.CERT["per_polygon"][0]
        for bad in self.BAD_INTS:
            self._refused(PolygonWitness.from_json, row, [field], bad)

    def test_polygon_padding_ok(self):
        row = self.CERT["per_polygon"][-1]
        assert row["padding_ok"] is True
        for bad in ("true", 1):
            self._refused(PolygonWitness.from_json, row, ["padding_ok"], bad)

    @pytest.mark.parametrize("field", ["scale", "degree", "seed"])
    def test_certificate_integers(self, field):
        for bad in self.BAD_INTS:
            self._refused(FiniteCertificate.from_json, self.CERT, [field], bad)

    def test_nested_fields_refused_through_the_certificate(self):
        for path in (["per_polygon", 2, "oracle", "rank"],
                     ["per_polygon", 2, "witness", "m"],
                     ["per_polygon", 2, "lattice_count"]):
            self._refused(FiniteCertificate.from_json, self.CERT, path, 2.0)
