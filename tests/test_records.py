"""The records of the asymptotic half are frozen ``NamedTuple``s.

Each converted record keeps its fields and derived values unchanged
under assignment and deletion, round-trips through ``copy`` and
``pickle`` to an equal object of its class, and, where it checks its
input, still checks it in ``__new__``.  ``Dissection._replace`` leaves
the copy unvalidated.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from seshadri.dissection import certified_bound
from seshadri.geometry import AffineForm, ConvexPolygon, DegenerateInput, Interval
from seshadri.reorder import PiecewiseLinear
from seshadri.render import RenderSpec

from conftest import asymptotic_records, derived

NAMES = sorted(asymptotic_records())


def _copies():
    yield "copy", copy.copy
    yield "deepcopy", copy.deepcopy
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield f"pickle {protocol}", lambda x, p=protocol: pickle.loads(pickle.dumps(x, p))


def test_there_are_eleven_records():
    assert NAMES == sorted(["AffineForm", "Interval", "ConvexPolygon", "PiecewiseLinear",
                            "CutStep", "Dissection", "DissectionValidation", "_AxisData",
                            "PolygonCheck", "AsymptoticReport", "RenderSpec"])


@pytest.mark.parametrize("name", NAMES)
def test_every_record_is_a_named_tuple(name):
    record = asymptotic_records()[name]
    assert isinstance(record, tuple) and tuple(record) == tuple(getattr(record, f)
                                                                for f in record._fields)
    # only a record with derived values carries a __dict__
    assert hasattr(record, "__dict__") == bool(derived(record))


@pytest.mark.parametrize("name", NAMES)
def test_copy_and_pickle_give_an_equal_record(name):
    unread, read = asymptotic_records()[name], asymptotic_records()[name]
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
    sample = asymptotic_records()[name]
    for attr in sample._fields + derived(sample) + ("extra",):
        record, twin = asymptotic_records()[name], asymptotic_records()[name]
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
