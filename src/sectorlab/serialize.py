"""Deterministic JSON emission with fixed float formatting.

Every float is written with 17 significant digits, which round-trips any
binary64 value exactly and keeps report bytes identical across runs.  Strings
are escaped by the standard ``json`` encoder, control characters included.
"""

from __future__ import annotations

import json
import math


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0 and math.copysign(1.0, x) < 0.0:
        # "-0" is read back as the integer 0, which drops the sign of zero.
        return "-0.0"
    return f"{x:.17g}"


def to_json(obj, indent: int = 0) -> str:
    """Serialize dicts/lists/scalars; dict order is preserved as given."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {to_json(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(isinstance(v, (int, float, bool)) or v is None for v in obj)
        if flat:
            return "[" + ", ".join(to_json(v) for v in obj) + "]"
        items = [f"{inner}{to_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
