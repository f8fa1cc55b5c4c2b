"""Deterministic JSON emission.

Every number the toolkit prints goes through this serializer so that
repeated runs with the same seed produce byte-identical output.  Floats are
printed with 17 significant digits, which round-trips IEEE doubles exactly.
A complex ndarray is a value too: it is written row-major as a flat list of
[re, im] pairs, straight from the array by :func:`format_floats`, which is
also how circuit text writes its matrix entries.  No Python list of pairs
is built, and :func:`dump_parts` hands the pieces over unjoined, so a
matrix is never held as text more than once.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: Values per ``%`` format in :func:`format_floats`: big enough that the
#: per-chunk overhead vanishes, small enough that the Python floats of a
#: chunk stay near 160 kB whatever the size of the array.
CHUNK = 4096


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} cannot be serialized")
    return "%.17g" % x


def dumps(obj) -> str:
    """Serialize ``obj`` (dict/list/str/bool/int/float/None, or a complex
    ndarray) deterministically."""
    return "".join(dump_parts(obj))


def dump_parts(obj) -> list[str]:
    """The text of :func:`dumps` as its pieces, in order, not joined.

    Everything is formatted before this returns, so a value that cannot be
    written raises before any piece is used.
    """
    parts: list[str] = []
    _write(obj, parts)
    return parts


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
    elif isinstance(obj, np.ndarray) and np.iscomplexobj(obj):
        flat = np.ascontiguousarray(obj, dtype=np.complex128).view(np.float64).reshape(-1)
        parts.append("[")
        parts += format_floats(flat, "[%.17g,%.17g]")
        parts.append("]")
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


def format_floats(values, item: str = "%.17g", sep: str = ",") -> list[str]:
    """The float64 array ``values`` written ``item`` by ``item`` and joined
    by ``sep``, as pieces whose concatenation is that text.

    ``item`` is a template of one or more ``%.17g`` fields, filled from
    ``values`` in order, ``CHUNK`` values per ``%`` format; every piece
    after the first starts with ``sep``.  Each value reads as
    :func:`format_float` writes it, and if any is not finite, the first
    such one raises as there.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    finite = np.isfinite(values)
    if not finite.all():
        format_float(float(values[np.argmin(finite)]))  # raises
    fields = item.count("%")
    step = CHUNK - CHUNK % fields
    pieces = []
    for start in range(0, len(values), step):
        chunk = values[start : start + step].tolist()
        template = sep.join([item] * (len(chunk) // fields))
        pieces.append((sep + template if start else template) % tuple(chunk))
    return pieces
