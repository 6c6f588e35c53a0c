"""The package's records are frozen ``NamedTuple``s, but ``LatticeSet``.

Each record keeps its fields and derived values unchanged under
assignment and deletion, round-trips through ``copy`` and ``pickle`` to
an equal object of its class, and, where it checks its input, still
checks it in ``__new__``.  No record stores a value its other fields
fix.  ``Dissection._replace`` leaves the copy unvalidated.  ``LatticeSet``, whose ``len`` and iteration are its
points', is a plain class that keeps the same promises.
"""

import copy
import dataclasses
import json
import pickle
import random
from fractions import Fraction as F

import pytest

from seshadri import __version__
from seshadri.certify import (EmptyPolygonAtScale, FiniteCertificate, PolygonWitness,
                              finite_certificate)
from seshadri.dissection import (AsymptoticReport, DissectionValidation, PolygonCheck,
                                 builtin_dissection_eckl10, certified_bound, dump_json,
                                 validate_dissection, verify_asymptotic)
from seshadri.geometry import (AffineForm, ConvexPolygon, DegenerateInput, Interval, Point,
                               x_projection)
from seshadri.lattice import LatticeSet, MultiplicitySpec
from seshadri.oracle import GenericPointSet, OracleVerdict
from seshadri.reorder import PiecewiseLinear
from seshadri.render import RenderSpec

import fraction_reference as ref
from conftest import asymptotic_records, derived, finite_records, random_dissection

ASYMPTOTIC = sorted(asymptotic_records())
NAMES = ASYMPTOTIC + sorted(finite_records())
TUPLES = [name for name in NAMES if name != "LatticeSet"]


def _new(name: str):
    """A new record of the class ``name``, no derived value read."""
    return (asymptotic_records() if name in ASYMPTOTIC else finite_records())[name]


def _fields(record) -> tuple:
    return record._fields if isinstance(record, tuple) else ("runs", "size")


def _copies():
    yield "copy", copy.copy
    yield "deepcopy", copy.deepcopy
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield f"pickle {protocol}", lambda x, p=protocol: pickle.loads(pickle.dumps(x, p))


def test_there_are_eleven_records():
    assert ASYMPTOTIC == sorted([
        "AffineForm", "Interval", "ConvexPolygon", "PiecewiseLinear", "CutStep", "Dissection",
        "DissectionValidation", "_AxisData", "PolygonCheck", "AsymptoticReport", "RenderSpec"])


def test_there_are_eight_finite_records():
    assert sorted(finite_records()) == sorted([
        "LatticeSet", "MultiplicitySpec", "ColumnProfile", "WitnessSelection",
        "GenericPointSet", "OracleVerdict", "PolygonWitness", "FiniteCertificate"])


@pytest.mark.parametrize("name", TUPLES)
def test_every_record_is_a_named_tuple(name):
    record = _new(name)
    assert isinstance(record, tuple) and tuple(record) == tuple(getattr(record, f)
                                                                for f in record._fields)
    # only a record with derived values carries a __dict__
    assert hasattr(record, "__dict__") == bool(derived(record))


@pytest.mark.parametrize("name", NAMES)
def test_copy_and_pickle_give_an_equal_record(name):
    unread, read = _new(name), _new(name)
    for attr in derived(read):
        getattr(read, attr)
    for record in (unread, read):
        for how, make in _copies():
            again = make(record)
            assert type(again) is type(record), how
            assert again == record and hash(again) == hash(record), how
            for attr in derived(record):
                if attr != "_analysis":
                    assert getattr(again, attr) == getattr(record, attr), (how, attr)
            if name == "Dissection":
                assert certified_bound(again) == F(4, 13), how


@pytest.mark.parametrize("name", NAMES)
def test_fields_and_derived_values_are_frozen(name):
    sample = _new(name)
    for attr in _fields(sample) + derived(sample) + ("extra",):
        record, twin = _new(name), _new(name)
        for change in (lambda: setattr(record, attr, None), lambda: delattr(record, attr)):
            with pytest.raises(AttributeError):
                change()
        if attr == "extra":
            assert not hasattr(record, attr)
        elif attr == "_analysis":
            assert record._analysis.polygons == twin._analysis.polygons
        else:
            # a derived value refused before its first read is still computed
            assert getattr(record, attr) == getattr(twin, attr), attr


def test_replace_leaves_a_dissection_unvalidated():
    dis = asymptotic_records()["Dissection"]
    assert dis._analysis is not None
    for again in (dis._replace(), dis._replace(name="renamed")):
        assert again._analysis is None
        assert certified_bound(again) == F(4, 13) and again._analysis is not None
    # the analysis takes no part in equality, hash or repr
    fresh = dis._replace()
    assert fresh == dis and hash(fresh) == hash(dis) and repr(fresh) == repr(dis)
    assert "_analysis" not in repr(dis)


def test_checked_records_check_in_new():
    form = AffineForm("1/2", 1, 0)
    assert form == (F(1, 2), 1, 0) and {type(c) for c in form} == {F}
    with pytest.raises(DegenerateInput, match="nonzero linear part"):
        AffineForm(1, 0, 0)
    assert Interval(0, "1/2").hi == F(1, 2) and type(Interval(0, 1).lo) is F
    with pytest.raises(ValueError, match="out of order"):
        Interval(1, 0)
    with pytest.raises(DegenerateInput, match="three vertices"):
        ConvexPolygon(1, ((0, 0), (1, 0)))
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewiseLinear((1, 1), (0, 0))
    assert RenderSpec() == (600, True) and RenderSpec(labels=False).size == 600
    with pytest.raises(ValueError, match="at least 100 px"):
        RenderSpec(99)


def test_finite_checked_records_check_in_new():
    spec = MultiplicitySpec([2, 1])
    assert spec == ((2, 1),) and spec.multiplicities == (2, 1) and spec.conditions() == 4
    for bad, fault in (((0,), "not positive"), ((True,), "not an integer"),
                       ((2.0,), "not an integer")):
        with pytest.raises(ValueError, match=fault):
            MultiplicitySpec(bad)
    points = GenericPointSet(((1, 2), (3, 4)))
    assert points == (((1, 2), (3, 4)),) and GenericPointSet._fields == ("points",)
    with pytest.raises(ValueError, match="pairwise distinct"):
        GenericPointSet(((1, 2), (1, 2)))
    with pytest.raises(ValueError, match="repeats point 1"):
        GenericPointSet.explicit([(1, 2), ("2/2", 2)])
    assert GenericPointSet.explicit([("1/2", 1)]).points == (Point(F(1, 2), F(1)),)
    for bad, fault in (([(1, -1)], "nonnegative"), ([(1.0, 2)], "integers"),
                       ([(1, 2, 3)], "not a list of 2 items")):
        with pytest.raises(ValueError, match=fault):
            LatticeSet(bad)


def test_a_lattice_set_is_its_points_and_equal_by_its_runs():
    D = LatticeSet([(2, 0), (0, 1), (0, 0), (0, 1)])
    assert len(D) == D.size == 3 and list(D) == [(0, 0), (0, 1), (2, 0)] == list(D.points)
    assert D.runs == ((0, 0, 2), (2, 0, 1))
    assert repr(D) == "LatticeSet(runs=((0, 0, 2), (2, 0, 1)), size=3)"
    # size takes no part in equality or hash, and the set is no tuple
    other = LatticeSet._of_runs(D.runs, 99)
    assert other == D and hash(other) == hash(D) and len(other) == 99
    assert D != LatticeSet([(0, 0)]) and D != D.runs and not isinstance(D, tuple)
    assert LatticeSet() == LatticeSet._of_runs((), 0) and len(LatticeSet()) == 0


def test_dataclasses_replace_gives_a_verdict():
    """perfbench's self-test plants a wrong verdict through
    ``dataclasses.replace``; ``_replace`` gives the same record."""
    verdict = finite_records()["OracleVerdict"]
    for wrong in (dataclasses.replace(verdict, non_special=False, rank=0),
                  verdict._replace(non_special=False, rank=0)):
        assert type(wrong) is OracleVerdict and wrong.to_json() == {
            **verdict.to_json(), "non_special": False, "rank": 0}


def test_records_store_no_value_their_fields_fix():
    """A value the other fields fix is a property, or is written by
    ``to_json`` alone, so no record can contradict itself; each matches
    its recomputation on eckl10 and on the random corpus."""
    assert DissectionValidation._fields == ("violations",)
    assert PolygonCheck._fields == ("polygon", "axis", "sup_admissible", "passed", "profile",
                                    "reordered")
    assert AsymptoticReport._fields == ("m", "per_polygon")
    assert PolygonWitness._fields == ("polygon", "lattice_count", "witness", "oracle")
    assert FiniteCertificate._fields == ("dissection", "scale", "oracle_mode", "seed",
                                         "per_polygon")
    assert FiniteCertificate.tool_version == __version__
    assert _check_derived_values(builtin_dissection_eckl10(), (13, 26)) == 2
    certified = sum(_check_derived_values(random_dissection(random.Random(seed),
                                                            f"random-{seed}"), (13, 26))
                    for seed in range(60))
    assert certified > 50


def _check_derived_values(dis, ns) -> int:
    """Check every derived value of the records of ``dis`` against its
    recomputation from other fields; return how many certificates were
    checked."""
    check = validate_dissection(dis)
    assert check.violations == () and check.ok is True
    tampered = validate_dissection(dis._replace(final=dis.steps[0].peeled))
    assert tampered.violations and tampered.ok is False
    assert tampered.to_json() == {"ok": False, "violations": list(tampered.violations)}
    bound, polygons = certified_bound(dis), dis.polygons()
    for m in (bound - F(1, 97), bound, F(1, 997)):
        if m <= 0:
            continue
        report = verify_asymptotic(dis, m)
        assert report.overall is all(row.passed for row in report.per_polygon)
        assert report.to_json()["overall"] is (m < bound)
        for row, data in zip(report.per_polygon, report.to_json()["per_polygon"],
                             strict=True):
            width = ref.length(x_projection(polygons[row.polygon - 1], row.axis))
            assert data["width"] == str(width), (dis.name, m, row.polygon)
    certified = 0
    for n in ns:
        try:
            cert = finite_certificate(dis, n, "modular")
        except EmptyPolygonAtScale:
            continue
        certified += 1
        ms = [row.witness.m for row in cert.per_polygon]
        assert [row.m for row in cert.per_polygon] == ms
        assert cert.min_ratio == F(min(ms), n)
        data = cert.to_json()
        assert data["degree"] == n and data["tool_version"] == __version__
        assert data["min_ratio"] == str(F(min(ms), n))
        assert [row["m"] for row in data["per_polygon"]] == ms
        dim = (n + 1) * (n + 2) // 2 - 1 - sum(m * (m + 1) // 2 for m in ms)
        assert data["statement"].endswith(f"non-special of dimension {dim}")
        assert FiniteCertificate.from_json(json.loads(dump_json(data))) == cert
    return certified

