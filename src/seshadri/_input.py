"""The one reader of values from outside the program; it imports nothing
from the package.  A rational is a ``Fraction``, an ``int`` that is not a
``bool``, or a ``"p/q"`` or ``"p"`` string: floats, booleans and decimal
strings are refused.  A typed field must have exactly its type, so a bool
is never an integer.  Every refusal names the value.
"""

from __future__ import annotations

import re
from fractions import Fraction
from reprlib import repr as _shown

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[1-9][0-9]*)?$")
_KINDS = {int: "an integer", bool: "a boolean", str: "a string"}


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' with the sign on the numerator; no decimals."""
    if type(text) is not str:
        raise TypeError(f"{type(text).__name__} {_shown(text)} is not a 'p/q' string")
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational 'p/q' literal: {text!r}")
    return Fraction(text)


def rational(x) -> Fraction:
    """A Fraction as is, an int that is not a bool, or a string through
    :func:`parse_rational`; anything else raises TypeError."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    if type(x) is str:
        return parse_rational(x)
    raise TypeError(f"{type(x).__name__} {_shown(x)} is not a rational: "
                    "pass Fraction, int or 'p/q'")


def field(name: str, value, kind: type, optional: bool = False, choices=None):
    """``value`` if its type is exactly ``kind`` (int, bool or str) and it is
    one of ``choices``, if given, else ValueError; with ``optional``, None passes."""
    if optional and value is None:
        return None
    if type(value) is not kind:
        raise ValueError(f"{name} {_shown(value)} is not {_KINDS[kind]}")
    if choices is not None and value not in choices:
        raise ValueError(f"{name} {_shown(value)} is not one of {choices}")
    return value


def parsed(name: str, parse, value):
    """``parse(value)``, refusing bad input with a ValueError naming the field."""
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} {_shown(value)} is not valid: {exc}") from None
