"""Deterministic JSON emission.

Every number the toolkit prints goes through this serializer so that
repeated runs with the same seed produce byte-identical output.  Floats are
printed with 17 significant digits, which round-trips IEEE doubles exactly.
Lists of floats or of [re, im] float pairs are written in one pass.
"""

from __future__ import annotations

import json
import math
from itertools import chain


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} cannot be serialized")
    return "%.17g" % x


def dumps(obj) -> str:
    """Serialize ``obj`` (dict/list/str/bool/int/float/None) deterministically."""
    parts: list[str] = []
    _write(obj, parts)
    return "".join(parts)


def _write(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)) and (flat := _number_list(obj)) is not None:
        parts.append(flat)
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _write(item, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                parts.append(",")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key)}")
            parts.append(json.dumps(key))
            parts.append(":")
            _write(val, parts)
        parts.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj)} deterministically")


def _number_list(items) -> str | None:
    """``items`` in one pass if it holds only floats or only [re, im] float
    pairs; None otherwise."""
    n, item = len(items), "%.17g"
    if set(map(type, items)) <= {list, tuple} and set(map(len, items)) == {2}:
        items, item = list(chain.from_iterable(items)), "[%.17g,%.17g]"
    if set(map(type, items)) != {float}:
        return None
    if not all(map(math.isfinite, items)):
        list(map(format_float, items))  # raises on the first non-finite entry
    return "[" + ",".join([item] * n) % tuple(items) + "]"
