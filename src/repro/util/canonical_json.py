"""Canonical JSON at C speed: the repo's one serialisation.

:func:`dumps` returns exactly ``json.dumps(obj, indent=2, sort_keys=True)
+ "\\n"`` — the bytes every ``/v1`` payload, stored scenario report,
golden fingerprint and store manifest is written as.  CPython only runs
its C encoder when ``indent`` is ``None``, so the stdlib call above walks
every value through the pure-Python generator encoder.  Here a small
recursive walk lays out the nested containers and hands each *flat*
container (no list, tuple or dict among its members) to one call of the
C encoder, whose item separator already carries the newline and the
member indentation of that level; the walk only adds the opening and
closing lines.

Scalars, key conversion (int, float, bool and None keys), the
``NaN``/``Infinity`` spellings and the ``TypeError`` for unsupported
values or unsortable mixed keys follow the stdlib encoder; a circular or
over-deep input falls back to the stdlib call, which raises its own
error.  ``tests/test_canonical_json.py`` holds the stdlib call as the
oracle.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import repeat
from json.encoder import INFINITY, c_make_encoder, encode_basestring_ascii
from typing import Any, Callable

__all__ = ["dumps"]

_CONTAINERS = (list, tuple, dict)


def _flat_members(members: Any) -> bool:
    """No list, tuple or dict among ``members`` (checked at C speed)."""
    return not any(map(isinstance, members, repeat(_CONTAINERS)))


def _stdlib(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _unsupported(obj: Any) -> Any:
    raise TypeError(f"Object of type {obj.__class__.__name__} "
                    f"is not JSON serializable")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == INFINITY:
        return "Infinity"
    if value == -INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _scalar(value: Any) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    return _unsupported(value)


def _key(key: Any) -> str:
    if isinstance(key, str):
        pass
    elif isinstance(key, float):
        key = _float(key)
    elif key is True:
        key = "true"
    elif key is False:
        key = "false"
    elif key is None:
        key = "null"
    elif isinstance(key, int):
        key = int.__repr__(key)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return encode_basestring_ascii(key)


@cache
def _level(level: int) -> tuple[Callable[[Any, int], Any], str, str]:
    """The C encoder for members at ``level + 1``, plus that level's
    member break and closing break."""
    inner = "\n" + "  " * (level + 1)
    encode = c_make_encoder(None, _unsupported, encode_basestring_ascii,
                            None, ": ", "," + inner, True, False, True)
    return encode, inner, "\n" + "  " * level


def _flat(container: Any, level: int) -> str:
    encode, inner, close = _level(level)
    text = "".join(encode(container, 0))
    return text[0] + inner + text[1:-1] + close + text[-1]


def _encode(value: Any, level: int, out: list[str]) -> None:
    if isinstance(value, dict):
        if not value:
            out.append("{}")
        elif _flat_members(value.values()):
            out.append(_flat(value, level))
        else:
            _, inner, close = _level(level)
            lead = "{" + inner
            for key, member in sorted(value.items()):
                if isinstance(member, _CONTAINERS):
                    out.append(lead + _key(key) + ": ")
                    _encode(member, level + 1, out)
                else:
                    out.append(lead + _key(key) + ": " + _scalar(member))
                lead = "," + inner
            out.append(close + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
        elif _flat_members(value):
            out.append(_flat(value, level))
        else:
            _, inner, close = _level(level)
            lead = "[" + inner
            for member in value:
                out.append(lead)
                lead = "," + inner
                _encode(member, level + 1, out)
            out.append(close + "]")
    else:
        out.append(_scalar(value))


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte."""
    out: list[str] = []
    try:
        _encode(obj, 0, out)
    except RecursionError:
        return _stdlib(obj)  # circular or over-deep: the stdlib's own error
    out.append("\n")
    return "".join(out)
