"""The one reader of values from outside the program; it imports nothing
from the package.  A rational is a ``Fraction``, an ``int`` that is not a
``bool``, or a ``"p/q"`` or ``"p"`` string: floats, booleans and decimal
strings are refused.  A typed field must have exactly its type, so a bool
is never an integer.  Every refusal names the value.  The cell cap, which
bounds every size a request may claim, lives here too, with its one guard
``check_cells``, so that every module can refuse an oversized request
without importing another; so does ``_over_common``, which clears
rationals to ints over one denominator, so does ``_ORACLE_MODES``,
the oracle modes a certificate may name, which the command line offers
without importing the certificate code, and so do ``lazy``, the one
way a record keeps a derived value, and ``_read_only``, which the
asymptotic records share (see :mod:`seshadri.geometry`).
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from math import lcm
from reprlib import Repr
from typing import Tuple

_RATIONAL_RE = re.compile(r"^([+-]?[0-9]+)(?:/([1-9][0-9]*))?$")
_KINDS = {int: "an integer", bool: "a boolean", str: "a string", list: "a list",
          dict: "an object"}
CELL_CAP = 4_000_000
_ORACLE_MODES = ("none", "modular", "exact")

# a refused value is shown abridged, and nested at most two levels deep
_REPR = Repr()
_REPR.maxlevel = 2
_shown = _REPR.repr


class SizeGuardrail(RuntimeError):
    """A request exceeds the desk-scale cell cap."""


def check_cells(cells: int, what: str) -> None:
    """Refuse with SizeGuardrail a request of more ``cells`` than the cap;
    ``what`` states the request, and the message goes on "exceeds the cell
    cap"."""
    env = os.environ.get("SESHADRI_MAX_CELLS")
    if env and not (env.isascii() and env.isdigit() and int(env) > 0):
        raise ValueError(f"SESHADRI_MAX_CELLS={env!r} is not a positive integer")
    if cells > (int(env) if env else CELL_CAP):
        raise SizeGuardrail(f"{what} exceeds the cell cap; set SESHADRI_MAX_CELLS")


def parse_pair(text: str) -> Tuple[int, int]:
    """The ints (p, q > 0) of 'p/q', or (p, 1) of 'p', not reduced."""
    if type(text) is not str:
        raise TypeError(f"{type(text).__name__} {_shown(text)} is not a 'p/q' string")
    match = _RATIONAL_RE.match(text.strip())
    if not match:
        raise ValueError(f"not a rational 'p/q' literal: {text.strip()!r}")
    return int(match[1]), int(match[2] or 1)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' with the sign on the numerator; no decimals."""
    return Fraction(*parse_pair(text))


def rational_pair(x) -> Tuple[int, int]:
    """(p, q > 0) of a Fraction, an int that is not a bool, or a string
    through :func:`parse_pair`; anything else raises TypeError."""
    if type(x) is Fraction:
        return x.numerator, x.denominator
    if type(x) is int:
        return x, 1
    if type(x) is str:
        return parse_pair(x)
    raise TypeError(f"{type(x).__name__} {_shown(x)} is not a rational: "
                    "pass Fraction, int or 'p/q'")


def rational(x) -> Fraction:
    """A Fraction as is, or the Fraction of :func:`rational_pair`."""
    return x if type(x) is Fraction else Fraction(*rational_pair(x))


def _over_common(xs) -> Tuple[list, int]:
    """The rationals ``xs`` (Fractions or ints) as ints over their least
    common denominator."""
    den = lcm(*[x.denominator for x in xs])
    return [x.numerator * (den // x.denominator) for x in xs], den


class lazy:
    """A record's derived value: computed from the record on first read and
    kept in its ``__dict__``, where later reads find it before this
    descriptor.  Unlike ``functools.cached_property`` before Python 3.12,
    it takes no lock."""

    def __init__(self, compute) -> None:
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


def _read_only(self, name: str, value=None):
    """``__setattr__`` and ``__delattr__`` of a record that keeps derived
    values in a ``__dict__``: neither its fields nor those values change."""
    raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")


class _Object(dict):
    """An object read from input: a missing key is refused by name."""

    def __missing__(self, key):
        raise ValueError(f"{self.name} has no {key!r}")


def field(name: str, value, kind: type, optional: bool = False, choices=None):
    """``value`` if its type is exactly ``kind`` (int, bool, str, list or dict) and
    it is one of ``choices``, if given, else ValueError; with ``optional``, None
    passes.  An object comes back as a dict that refuses a missing key naming
    ``name`` and the key."""
    if optional and value is None:
        return None
    if type(value) is not kind:
        raise ValueError(f"{name} {_shown(value)} is not {_KINDS[kind]}")
    if choices is not None and value not in choices:
        raise ValueError(f"{name} {_shown(value)} is not one of {choices}")
    if kind is dict:
        value = _Object(value)
        value.name = name
    return value


def parsed(name: str, parse, value):
    """``parse(value)``, refusing bad input with a ValueError naming the field."""
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} {_shown(value)} is not valid: {exc}") from None


def items(name: str, value, k: int) -> tuple:
    """``value`` as a tuple if it is a list or tuple of exactly ``k`` items,
    else ValueError naming the field: a string is never a list of its
    characters."""
    if type(value) not in (list, tuple) or len(value) != k:
        raise ValueError(f"{name} {_shown(value)} is not a list of {k} items")
    return tuple(value)
