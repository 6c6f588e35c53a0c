"""The package's records are frozen ``NamedTuple``s, but ``LatticeSet``.

Each record keeps its fields and derived values unchanged under
assignment and deletion, round-trips through ``copy`` and ``pickle`` to
an equal object of its class, and, where it checks its input, still
checks it in ``__new__``.  ``Dissection._replace`` leaves the copy
unvalidated.  ``LatticeSet``, whose ``len`` and iteration are its
points', is a plain class that keeps the same promises.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction as F

import pytest

from seshadri.dissection import certified_bound
from seshadri.geometry import AffineForm, ConvexPolygon, DegenerateInput, Interval, Point
from seshadri.lattice import LatticeSet, MultiplicitySpec
from seshadri.oracle import GenericPointSet, OracleVerdict
from seshadri.reorder import PiecewiseLinear
from seshadri.render import RenderSpec

from conftest import asymptotic_records, derived, finite_records

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
    assert points == (((1, 2), (3, 4)), None) and GenericPointSet.seeded(2, 5).seed == 5
    with pytest.raises(ValueError, match="pairwise distinct"):
        GenericPointSet(((1, 2), (1, 2)), 0)
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
