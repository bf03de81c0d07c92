"""Report records, the one JSON form of a complex number ([re, im]), and the two input range rules.

A report record is a dataclass that subclasses ``Record``. Its ``to_dict``
writes every field under its own name: complex numbers as [re, im], tuples
and lists element by element, nested records as dicts, and any other value
as it is. A field declared with ``field(metadata={"key": "other"})`` is
written under ``other``; one declared with ``field(metadata={"key": None})``
is left out.
"""

from __future__ import annotations

import math
from dataclasses import fields
from functools import cache
from typing import Any, Callable

from .errors import FormatError

# Values written as they are, checked by exact type before any call.
_PLAIN = frozenset({float, int, str, bool, type(None), dict})


def _cpair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _require_finite_complex(z: complex, what: str) -> complex:
    """z as a complex number; FormatError unless it is a finite number (a string is not)."""
    try:
        if isinstance(z, (str, bytes)):
            raise TypeError
        z = complex(z)
    except (TypeError, ValueError, OverflowError):
        raise FormatError(f"{what} must be a number, got {z!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise FormatError(f"{what} must be finite, got {z!r}")
    return z


def _parse_cnum(v, what: str) -> complex:
    """A finite complex number from a JSON number or an [re, im] pair of numbers."""
    pair = (v, 0.0) if isinstance(v, (int, float)) else v
    z = None
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        try:
            z = complex(float(pair[0]), float(pair[1]))
        except (TypeError, ValueError, OverflowError):
            pass
    if z is None:
        raise FormatError(f"{what} must be a number or an [re, im] pair of numbers, got {v!r}")
    return _require_finite_complex(z, what)


def _number(section: dict, key: str, default: Any, kind: type) -> Any:
    """section[key] (or default) converted by ``kind``; FormatError if it is
    not a number of that kind."""
    v = section.get(key, default)
    try:
        # int(True), float(True), int(2.7) and float("1e-3") would pass.
        if isinstance(v, (bool, str)) or (kind is int and isinstance(v, float) and not v.is_integer()):
            raise TypeError
        return kind(v)
    except (TypeError, ValueError, OverflowError):
        raise FormatError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {v!r}") from None


def require_tolerance(value: float, name: str) -> None:
    """FormatError unless value is finite and >= 0 (a tolerance of 0 is exact comparison)."""
    if not (math.isfinite(value) and value >= 0):
        raise FormatError(f"{name} must be a finite number >= 0, got {value!r}")


def require_count(value: int, name: str) -> None:
    """FormatError unless value is an int >= 1; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise FormatError(f"{name} must be an integer >= 1, got {value!r}")


def _list(section: dict, key: str, default: Any) -> Any:
    """section[key] (or default); FormatError unless it is a list or the default."""
    v = section.get(key, default)
    if v is not default and not isinstance(v, (list, tuple)):
        raise FormatError(f"{key} must be a list, got {v!r}")
    return v


def _value(v):
    """A field value in report form: records as dicts, tuples and lists
    element by element, complex numbers as [re, im]."""
    if isinstance(v, Record):
        return v.to_dict()
    if isinstance(v, (list, tuple)):
        return [x if x.__class__ in _PLAIN else _value(x) for x in v]
    if isinstance(v, complex):
        return _cpair(v)
    return v


@cache
def _writer(cls: type) -> Callable[[Record], dict]:
    """cls's to_dict, built once: one dict display of its written fields, as a
    hand-written to_dict would be, in which a plain value is stored without a
    call. It costs half as much as a loop over the fields."""
    keys = [(f.name, f.metadata.get("key", f.name)) for f in fields(cls)]
    items = ", ".join(
        f"{key!r}: v if (v := self.{name}).__class__ in _PLAIN else _value(v)" for name, key in keys if key is not None
    )
    scope = {"_PLAIN": _PLAIN, "_value": _value}
    exec(f"def to_dict(self):\n    return {{{items}}}\n", scope)
    return scope["to_dict"]


class Record:
    """Base of the report dataclasses: one ``to_dict`` for all of them."""

    def to_dict(self) -> dict:
        return _writer(self.__class__)(self)
