"""Deterministic JSON emission: the one place that fixes the output format.

Floats are written by ``repr``, the shortest text that reads back as the same
binary64 value, so round trips are bit-exact and an integral float stays a
float (``2.0``, not ``2``).  Dict order is kept, so fixed inputs give
byte-identical documents.  Non-finite floats raise ``ValueError``, and values
that are not plain Python ones (a numpy integer, say) raise ``TypeError``.
The text is ``json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False)``
byte for byte.  With an indent ``json`` drops its C encoder for a slower
pure-Python one, so a direct emitter writes what it takes, and ``json`` writes
or refuses anything else.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring

_INF = float("inf")


def to_json(obj) -> str:
    """Serialize dicts/lists/scalars; dict order is preserved as given."""
    out = []
    try:
        _value(obj, out, "\n")
    except (ValueError, RecursionError):
        # json's own error, or its text, for what the emitter does not take
        return json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False)
    return "".join(out)


def _value(o, out: list, newline: str) -> None:
    # json's text of o, appended to out; the lines inside a list or dict start with newline
    # and two more spaces.  json's types are disjoint, so the order of the tests is free.
    if isinstance(o, str):
        out.append(encode_basestring(o))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in o.items():
            out.append(sep + encode_basestring(key if isinstance(key, str) else _scalar(key)) + ": ")
            _value(item, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in o:
            if type(item) is float and item - item == 0.0:  # a finite float, inline
                out.append(sep + float.__repr__(item))
            else:
                out.append(sep)
                _value(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(_scalar(o))


def _scalar(o) -> str:
    # json's text of a scalar that is not a str, as a value or a key; ValueError where json
    # refuses it (a non-finite float) or does not take its type
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float) and not (o != o or o == _INF or o == -_INF):
        return float.__repr__(o)
    raise ValueError("json decides")
