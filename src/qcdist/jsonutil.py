"""Deterministic JSON emission.

Every number the toolkit prints goes through this serializer so that
repeated runs with the same seed produce byte-identical output.  Floats are
printed as ``"%.17g" % x`` prints them: 17 significant digits, which
round-trips IEEE doubles exactly.  A complex ndarray is a value too: it is
written row-major as a flat list of [re, im] pairs, straight from the array
by :func:`format_floats`, which is also how circuit text writes its matrix
entries.  No Python list of pairs is built, and :func:`dump_parts` hands the
pieces over unjoined, so a matrix is never held as text more than once.

An array of ``VECTOR_MIN`` values or more is formatted in numpy, with the
same bytes as ``%``.  Its 17 digits are N = round-half-even(|x| 10**(16-E))
with E the decimal exponent, and |x| 10**(16-E) comes from Dekker's
error-free product of x with a double-double power of ten (T. J. Dekker,
Numer. Math. 18, 1971).  The fraction of that product is computed to about
2**-47, so wherever it lies 2**-30 or more from 1/2 it rounds N as correctly
rounded conversion does (D. M. Gay, 1990), and the text cannot differ.  The
other values are written by ``%`` itself: a fraction within 2**-30 of 1/2
(every exact tie, such as 1e15 + 0.25, among them), |x| outside [1e-250,
1e250] (subnormals among them), and any N that ends outside [1e16, 1e17).
Zeros keep a form of their own, "0" or "-0".
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

#: Values per ``%`` format, or per :func:`_text_rows` call, in
#: :func:`format_floats`: big enough that the per-chunk overhead is small,
#: small enough that a chunk's working arrays stay near 0.4 MB whatever the
#: size of the array.
CHUNK = 1024
#: Arrays of at least this many values are formatted by the vectorized
#: ``%.17g`` of :func:`_text_rows`; its fixed cost per call is that of
#: ``%`` on about this many values.
VECTOR_MIN = 384
#: Characters per piece of the vectorized path, at most, unless one chunk
#: needs more: two chunks or more.
PIECE = 2**16


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
    ``values`` in order, ``CHUNK`` values at a time; a piece holds whole
    chunks, and every piece after the first starts with ``sep``.  Each
    value reads as :func:`format_float` writes it, and if any is not
    finite, the first such one raises as there.  Arrays of ``VECTOR_MIN``
    values or more are written by :func:`_text_rows`, in pieces of up to
    ``PIECE`` characters; shorter ones by one ``%`` format per chunk and
    piece.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    finite = np.isfinite(values)
    if not finite.all():
        format_float(float(values[np.argmin(finite)]))  # raises
    fields = item.count("%")
    step = CHUNK - CHUNK % fields
    literals = item.split("%.17g")
    plain = (item + sep).isascii() and "\0" not in item + sep  # 0 is the pad byte
    if len(values) >= VECTOR_MIN and len(literals) == fields + 1 and plain:
        return _vector_pieces(values, literals, sep, step)
    pieces = []
    for start in range(0, len(values), step):
        chunk = values[start : start + step].tolist()
        template = sep.join([item] * (len(chunk) // fields))
        pieces.append((sep + template if start else template) % tuple(chunk))
    return pieces


def _vector_pieces(values, literals: list[str], sep: str, step: int) -> list[str]:
    """:func:`format_floats` by :func:`_text_rows`, ``step`` values at a time.

    The text goes out through one reused buffer, a piece per ``PIECE``
    characters.  A str made per chunk, amid the chunk's temporaries, left
    the freed text split into blocks too small for the next large
    allocation: the peak RSS of the ``amplify`` benchmark rose by up to 3 MB.
    """
    head, tail = literals[0], literals[-1]
    prefixes = [tail + sep + head, *literals[1:-1]]  # before each field of an item
    width = max(len(sep + head), *map(len, prefixes))
    table = np.zeros((len(prefixes), width), dtype=np.uint8)
    for row, prefix in zip(table, prefixes):
        row[: len(prefix)] = list(prefix.encode("ascii"))
    end = list(tail.encode("ascii"))
    buffer = np.empty(max(PIECE, step * (width + _WIDE) + len(end)), dtype=np.uint8)
    pieces, filled = [], 0
    for start in range(0, len(values), step):
        first = (sep if start else "") + head
        text = _text_rows(values[start : start + step], table, first.encode("ascii")).reshape(-1)
        text = text[text != 0]
        if filled + len(text) + len(end) > len(buffer):
            pieces.append(str(buffer[:filled], "ascii"))
            filled = 0
        buffer[filled : filled + len(text)] = text
        buffer[filled + len(text) : filled + len(text) + len(end)] = end
        filled += len(text) + len(end)
    pieces.append(str(buffer[:filled], "ascii"))
    return pieces


# Rows of the source array that a template picks from, one byte per value
# in each: constants, the sign and lead digit, the 16 digits after the lead
# digit in full and with their trailing zeros blanked, and the exponent's
# sign and three digits.
_PAD, _ZERO, _DOT, _E, _SIGN, _LEAD = range(6)
_FULL, _KEPT, _EXP, _ROWS = 6, 22, 38, 42
_CONSTANTS = np.array([[0], [ord("0")], [ord(".")], [ord("e")]], dtype=np.uint8)
#: The widest ``%.17g`` of a double, ``-1.2345678901234567e-100``.
_WIDE = 24
#: Forms of a number's text: fixed notation with decimal exponent X in
#: -4..16 is form X + 4, exponent notation is form 21 with 2 exponent digits
#: and 22 with 3, and zero is form 23.
_EXP2, _ZERO_FORM = 21, 23
#: Where the scaled value's fraction is this close to 1/2, the value goes
#: to ``%``: the product below is off by about 2**-47 at most.
_TIE = 2.0**-30
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter: halves of 26 bits multiply exactly
_K0 = 300  # column of 10**0 in _POWERS, and of exponent 0 in the exponent tables
#: Rows hi, the two halves of hi, lo of the double-double 10**k, in column
#: k + _K0; only the range _KNOWN of k is filled, as values need it.
_POWERS = np.zeros((4, 2 * _K0 + 1))
_KNOWN = [0, -1]


@functools.lru_cache(maxsize=None)
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Lookup tables of the vectorized ``%.17g``, built by numpy on first use:
    - the 4-digit groups 0000..9999 as 4-byte words, then the same with
      their trailing zeros blanked (0000 all blank);
    - per decimal exponent e (at e + _K0): the form of its text, and the
      word of its sign and three digits;
    - per form: the template of source rows and the row of its decimal
      point, which stays only if a digit follows it.
    """
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for q in range(4):
        digits[..., q] = np.arange(ord("0"), ord("9") + 1).reshape([-1 if i == q else 1 for i in range(4)])
    digits = digits.reshape(10_000, 4)
    ends = np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]  # 0 from here on
    words = np.concatenate([digits, digits * ~ends]).view(np.uint32).reshape(-1)
    e = np.arange(-_K0, _K0 + 1)
    forms = np.where((e < -4) | (e > 16), _EXP2 + (np.abs(e) >= 100), e + 4).astype(np.int8)
    signs = np.where(e < 0, ord("-"), ord("+"))
    exps = np.stack([signs, *(ord("0") + np.abs(e) // 10**k % 10 for k in (2, 1, 0))], axis=1)
    exps = exps.astype(np.uint8).view(np.uint32).reshape(-1)
    full, kept = list(range(_FULL, _KEPT)), list(range(_KEPT, _EXP))
    templates = []
    for form in range(_ZERO_FORM + 1):
        point = None
        if form == _ZERO_FORM:
            rows = [_SIGN, _ZERO]
        elif form >= _EXP2:
            point = 2
            rows = [_SIGN, _LEAD, _DOT, *kept, _E, _EXP, *range(_EXP + 23 - form, _EXP + 4)]
        elif form == 20:
            rows = [_SIGN, _LEAD, *full]
        elif form >= 4:
            point = form - 2
            rows = [_SIGN, _LEAD, *full[: form - 4], _DOT, *kept[form - 4 :]]
        else:
            rows = [_SIGN, _ZERO, _DOT, *[_ZERO] * (3 - form), _LEAD, *kept]
        templates.append((np.array(rows + [_PAD] * (_WIDE - len(rows))), point))
    return words, forms, exps, templates


def _powers(k: np.ndarray) -> np.ndarray:
    """Rows hi, hi's halves and lo of 10**k for each k, from Python ints:
    ``a / b`` of ints is correctly rounded, so hi is 10**k rounded and lo
    is the rest, rounded."""
    k0, k1 = int(k.min()), int(k.max())
    if k0 < _KNOWN[0] or k1 > _KNOWN[1]:
        k0, k1 = min(k0, _KNOWN[0]), max(k1, _KNOWN[1])
        for j in range(k0, k1 + 1):
            a, b = 10 ** max(j, 0), 10 ** max(-j, 0)
            hi = a / b
            num, den = hi.as_integer_ratio()
            c = _SPLIT * hi
            half = c - (c - hi)
            _POWERS[:, j + _K0] = hi, half, hi - half, (a * den - num * b) / (b * den)
        _KNOWN[:] = k0, k1
    return _POWERS.take(k + _K0, axis=1)


def _scaled(ax, ah, al, e):
    """``floor(ax * 10**(16 - e))`` as int64 and the fraction above it.

    Dekker's product of ax (halves ah, al) with hi is exact as p + err;
    ax * lo adds the power's rounding.  For a product below 2**57 the
    fraction is off by about 2**-47 at most.
    """
    hi, hh, hl, lo = _powers(16 - e)
    p = ax * hi
    t = ((ah * hh - p) + ah * hl + al * hh) + (al * hl + ax * lo)
    floor = np.floor(t)
    return p.astype(np.int64) + floor.astype(np.int64), t - floor


def _put_words(rows: np.ndarray, w: np.ndarray) -> None:
    """Write the 4-byte words ``w`` (k, n) into the byte rows ``rows`` (4k, n)."""
    rows.reshape(len(w), 4, -1)[...] = w.view(np.uint8).reshape(len(w), -1, 4).transpose(0, 2, 1)


def _text_rows(x: np.ndarray, prefixes: np.ndarray, first: bytes) -> np.ndarray:
    """Row i: the bytes of ``prefixes[i % len(prefixes)]`` (``first`` for
    row 0) and ``"%.17g" % x[i]``, padded with zeros.

    N = round-half-even(|x| 10**(16 - E)) holds the 17 digits, with E the
    decimal exponent.  E starts as floor(log10 |x|) and is corrected once
    where N falls outside [10**16, 10**17).  Values whose fraction lies
    within ``_TIE`` of 1/2 (exact ties among them), or outside [1e-250,
    1e250] (where the power or its halves would leave the normal range),
    are written by ``%``, as is any N that ends out of range.  Every other
    N is the correctly rounded one, so the text is ``%``'s byte for byte.

    The text is laid out by form: with the values sorted by it, each form
    is one block of columns of the source rows, copied through its
    template, then the rows go back to their order under their prefixes.
    """
    n, width = len(x), prefixes.shape[1]
    words, forms, exps, templates = _tables()
    ax = np.abs(x)
    slow = ~((ax >= 1e-250) & (ax <= 1e250))
    zero = ax == 0
    ax[slow] = 1.0
    e = np.floor(np.log10(ax)).astype(np.int64)
    c = _SPLIT * ax
    ah = c - (c - ax)
    al = ax - ah
    big, frac = _scaled(ax, ah, al, e)
    off = np.flatnonzero((big < 10**16) | (big >= 10**17))
    if off.size:
        e[off] += np.where(big[off] < 10**16, -1, 1)
        big[off], frac[off] = _scaled(ax[off], ah[off], al[off], e[off])
    slow |= np.abs(frac - 0.5) < _TIE
    big += frac > 0.5
    carry = big == 10**17
    big[carry] = 10**16
    e += carry
    slow |= (big < 10**16) | (big >= 10**17)
    slow &= ~zero

    e += _K0
    form = forms.take(e)
    form[zero] = _ZERO_FORM
    order = np.argsort(form, kind="stable")
    big, e = big.take(order), e.take(order)

    # the lead digit and four 4-digit groups; a group's trailing zeros are
    # blanked unless its rest is nonzero
    lead = np.empty(n, dtype=np.int64)
    g = np.empty((4, n), dtype=np.int64)
    rest = np.empty((4, n), dtype=np.int64)
    np.divmod(big, 10**16, out=(lead, rest[3]))
    np.divmod(rest[3], 10**12, out=(g[0], rest[0]))
    np.divmod(rest[0], 10**8, out=(g[1], rest[1]))
    np.divmod(rest[1], 10**4, out=(g[2], g[3]))
    rest[2] = g[3]
    rest[3] = 0

    src = np.empty((_ROWS, n), dtype=np.uint8)
    src[:_SIGN] = _CONSTANTS
    src[_SIGN] = np.signbit(x)[order] * ord("-")
    src[_LEAD] = ord("0") + lead
    full = words.take(g)
    _put_words(src[_FULL:_KEPT], full)
    _put_words(src[_KEPT:_EXP], np.where(rest != 0, full, words.take(g + 10_000)))
    _put_words(src[_EXP:], exps.take(e)[None])

    text = np.empty((n, _WIDE), dtype=np.uint8)
    a = 0
    for (rows, point), count in zip(templates, np.bincount(form, minlength=len(templates)).tolist()):
        if count:
            block = text[a : a + count].T
            np.take(src[:, a : a + count], rows, axis=0, out=block, mode="clip")
            if point is not None:  # a digit byte is above ".", the pad byte below
                np.minimum(block[point + 1], ord("."), out=block[point])
            a += count
    out = np.empty((n, width + _WIDE), dtype=np.uint8)
    out.reshape(-1, len(prefixes), width + _WIDE)[:, :, :width] = prefixes
    out[0, :width] = 0
    out[0, : len(first)] = list(first)
    number = f"V{_WIDE}"
    out[:, width:].view(number)[order, 0] = text.view(number)[:, 0]
    for i in np.flatnonzero(slow).tolist():
        digits = ("%.17g" % x[i]).encode("ascii")
        out[i, width:] = 0
        out[i, width : width + len(digits)] = list(digits)
    return out
