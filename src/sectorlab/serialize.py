"""Deterministic JSON emission: the one place that fixes the output format.

Floats are written by ``repr``, the shortest text that reads back as the same
binary64 value, so round trips are bit-exact and an integral float stays a
float (``2.0``, not ``2``).  Dict order is kept, so fixed inputs give
byte-identical documents.  Non-finite floats raise ``ValueError``, and values
that are not plain Python ones (a numpy integer, say) raise ``TypeError``.
"""

from __future__ import annotations

import json


def to_json(obj) -> str:
    """Serialize dicts/lists/scalars; dict order is preserved as given."""
    return json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False)
