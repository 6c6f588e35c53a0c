"""The canonical JSON encoder against ``json.dumps``.

``dump_json`` writes all machine output.  Its text must be byte-for-byte
what ``json.dumps(data, indent=2, sort_keys=True) + "\\n"`` gives, which
is kept here as the reference, and it must refuse every value outside
dicts with str keys, lists, str, int, bool and None.
"""

import json
import random
from fractions import Fraction

import pytest

from seshadri.dissection import dump_json

from conftest import asymptotic_records, finite_records


def _dump_json_reference(data) -> str:
    """The former ``dump_json``: Python's indenting encoder."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


_CHARS = ("abcxyz019 _-/" "\"\\" "\x00\x01\x08\t\n\x0c\r\x1f\x7f"
          "éß 中\U0001f600")


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 6)))


def _int(rng: random.Random) -> int:
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return rng.randint(-10**6, 10**6)
    sign = rng.choice((-1, 1))
    return sign * rng.randint(2**63, 2**200)


def _int_rows(rng: random.Random, equal: bool) -> list:
    width = rng.randint(1, 4)
    return [[_int(rng) for _ in range(width if equal else rng.randint(0, 4))]
            for _ in range(rng.randint(1, 6))]


def _value(rng: random.Random, depth: int):
    kind = rng.randrange(11 if depth > 0 else 6)
    if kind == 0:
        return _int(rng)
    if kind == 1:
        return _text(rng)
    if kind == 2:
        return rng.choice((True, False, None))
    if kind == 3:
        return [_int(rng) for _ in range(rng.randint(1, 5))]
    if kind == 4:
        return _int_rows(rng, equal=True)
    if kind == 5:
        return _int_rows(rng, equal=False)
    if kind in (6, 7):
        return {_text(rng): _value(rng, depth - 1) for _ in range(rng.randint(0, 4))}
    if kind in (8, 9):
        return [_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    return rng.choice(({}, [], [{}], [[]], {"": []}, [[], [1]], [[1], []]))


def test_random_documents_match_the_reference():
    rng = random.Random(20260807)
    for _ in range(400):
        doc = _value(rng, rng.randint(0, 4))
        assert dump_json(doc) == _dump_json_reference(doc), doc


@pytest.mark.parametrize("doc", [
    {}, [], 0, -7, 2**64, -(2**64) - 1, "", "é\"\\\x00", True, False, None,
    {"b": {}, "a": [], "c": [{}, []]},
    [1, [2, 3], 4],
    [[1, 2], 3],
    [[1, 2], [3]],
    [[1, 2], [3, 4, 5], [6, 7]],
    [[], []],
    [[1, 2], [], [3, 4]],
    [[1, 2], ["a", 3]],
    [[1, 2], [None, 3]],
    [[1, 2], {"k": 3}],
    {"中": 1, "\U0001f600": 2, "\x01": 3, "Z": 4, "a": 5},
])
def test_edge_documents_match_the_reference(doc):
    assert dump_json(doc) == _dump_json_reference(doc)


@pytest.mark.parametrize("doc", [
    [1, True, 2],
    [True, False],
    [[1, True], [2, 3]],
    [[True, False], [False, True]],
    {"rows": [[0, 1], [1, False]]},
])
def test_bools_print_as_json_bools(doc):
    text = dump_json(doc)
    assert text == _dump_json_reference(doc)
    assert "true" in text or "false" in text


@pytest.mark.parametrize("doc, name", [
    (1.5, "float"),
    ([1, 2.0], "float"),
    ([[1, 2], [3, 4.0]], "float"),
    ({"x": float("nan")}, "float"),
    (Fraction(1, 3), "Fraction"),
    ([[Fraction(1)], [2]], "Fraction"),
    ((1, 2), "tuple"),
    ({"pair": (1, 2)}, "tuple"),
    ([(1, 2), (3, 4)], "tuple"),
    ({1: "a"}, "keys must be str, not int"),
    ({"a": 1, None: 2}, "keys must be str, not NoneType"),
    ({True: 1}, "keys must be str, not bool"),
])
def test_values_outside_json_are_refused(doc, name):
    with pytest.raises(TypeError, match=name):
        dump_json(doc)


RECORDS = {**asymptotic_records(), **finite_records()}


@pytest.mark.parametrize("name", sorted(n for n, r in RECORDS.items() if isinstance(r, tuple)))
def test_a_record_nested_anywhere_is_refused_by_its_class(name):
    """A record is a NamedTuple, so a tuple; ``json.dumps`` writes one of
    JSON values as a list, and ``dump_json`` must refuse it instead."""
    record = RECORDS[name]
    for doc in (record, {"row": record}, [1, record], [[1, 2], record],
                {"rows": [[0], [{"deep": [record]}]]}):
        with pytest.raises(TypeError, match=f"type {name} is not"):
            dump_json(doc)


def test_the_reference_would_write_a_record_as_a_list():
    records = asymptotic_records()
    for name, written in (("RenderSpec", [300, False]), ("DissectionValidation", [True, []])):
        assert json.loads(_dump_json_reference({"r": records[name]})) == {"r": written}
