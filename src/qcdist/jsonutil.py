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
Zeros keep a form of their own, "0" or "-0".  The text is built a row of
bytes per number, ``CHUNK`` numbers at a time: the digits go in as 4-byte
words from a table of 0000..9999, a few column copies per form of text.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

#: Values per ``%`` format, or per :func:`_text_rows` call, in
#: :func:`format_floats`.  On the 131,072 floats of ``amplify``'s witness
#: (2-vCPU VM, min of 9, two runs): 32.0-33.0 ms at 1024, 24.4-24.8 at
#: 2048, 20.6-21.6 at 4096, 20.3-20.8 at 8192 and 19.8-19.9 at 16384.  A
#: chunk's working arrays take about 130 bytes per value whatever the size
#: of the array, 0.54 MB at 4096: each doubling past it gains under 1
#: ms and adds as much again to the peak memory of the emission.
CHUNK = 4096
#: Arrays of at least this many values are formatted by the vectorized
#: ``%.17g`` of :func:`_text_rows`: its fixed cost per call, about 130 us,
#: is that of ``%`` on about this many values.  Measured (min of 15, two
#: runs): at 320 values 170-174 us against 153-163 us by ``%``; at 384,
#: 177-183 against 183-196 us.
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
    # a NaN or an infinity makes min + max non-finite, and no array as long as values is made
    if not np.isfinite(values.min(initial=0.0) + values.max(initial=0.0)):
        format_float(float(values[np.argmin(np.isfinite(values))]))  # raises
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
    width = max(len(sep + head), *map(len, prefixes)) + _WIDE
    rows = np.zeros((len(prefixes), width), dtype=np.uint8)
    for row, prefix in zip(rows, prefixes):
        row[: len(prefix)] = list(prefix.encode("ascii"))
    end = list(tail.encode("ascii"))
    buffer = np.empty(max(PIECE, step * width + len(end)), dtype=np.uint8)
    pieces, filled = [], 0
    for start in range(0, len(values), step):
        first = (sep if start else "") + head
        text = _text_rows(values[start : start + step], rows, first.encode("ascii")).reshape(-1)
        text = text[text != 0]
        if filled + len(text) + len(end) > len(buffer):
            pieces.append(str(buffer[:filled], "ascii"))
            filled = 0
        buffer[filled : filled + len(text)] = text
        buffer[filled + len(text) : filled + len(text) + len(end)] = end
        filled += len(text) + len(end)
    pieces.append(str(buffer[:filled], "ascii"))
    return pieces


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
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables of the vectorized ``%.17g``, built by numpy on first use:
    - the 4-digit groups 0000..9999 as 4-byte words, then the same with
      their trailing zeros blanked (0000 all blank);
    - per decimal exponent e (at e + _K0): the form of its text, and the
      word of its sign and three digits.
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
    return words, forms, exps.astype(np.uint8).view(np.uint32).reshape(-1)


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


def _put(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[...] = src``, one item per row: numpy copies short rows byte by byte, 5x slower."""
    item = f"V{dst.shape[1]}"
    dst.view(item)[:, 0] = src.view(item)[:, 0]


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """N = round-half-even(|x| 10**(16 - E)), which holds the 17 digits, E
    the decimal exponent, the values to be written by ``%`` and the zeros;
    their temporaries are freed before the text is built.

    E starts as floor(log10 |x|) and is corrected once where N falls
    outside [10**16, 10**17).  Values whose fraction lies within ``_TIE``
    of 1/2 (exact ties among them), or outside [1e-250, 1e250] (where the
    power or its halves would leave the normal range), go to ``%``, as
    does any N that ends outside that range.  Every other N is the
    correctly rounded one, so the text is ``%``'s byte for byte.
    """
    ax = np.abs(x)
    slow = ~((ax >= 1e-250) & (ax <= 1e250))
    zero = ax == 0
    ax[slow] = 1.0
    e = np.floor(np.log10(ax)).astype(np.int64)
    ah = _SPLIT * ax
    ah -= ah - ax
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
    return big, e, slow & ~zero, zero


def _text_rows(x: np.ndarray, rows: np.ndarray, first: bytes) -> np.ndarray:
    """Row i: the bytes of ``rows[i % len(rows)]``, ``first`` in place of
    its prefix for row 0, with ``"%.17g" % x[i]`` in its last ``_WIDE``
    bytes; the rest are zeros.

    With the values sorted by form, each form's block of rows is filled by
    a few column copies of the digits of :func:`_decimal`'s N, then the
    rows go back to their order under their prefixes.
    """
    n, width = len(x), rows.shape[1] - _WIDE
    words, forms, exps = _tables()
    big, e, slow, zero = _decimal(x)
    e += _K0
    form = forms.take(e)
    form[zero] = _ZERO_FORM
    order = np.argsort(form, kind="stable")
    big, e = big.take(order), e.take(order)

    # the lead digit and the 16 after it as four 4-digit groups: their words
    # in full, and with a group's trailing zeros blanked where no later
    # group is nonzero
    g = np.empty((n, 4), dtype=np.int64)
    hi, lo = np.divmod(big, 10**8)
    hi, g[:, 1] = np.divmod(hi, 10**4)
    lead, g[:, 0] = np.divmod(hi, 10**4)
    g[:, 2], g[:, 3] = np.divmod(lo, 10**4)
    blank = np.stack([(g[:, 1] == 0) & (lo == 0), lo == 0, g[:, 3] == 0, np.ones(n, bool)], axis=1)
    full = words.take(g).view(np.uint8)  # (n, 16)
    g += blank * np.int16(10_000)  # to the blanked words, by an int16 temporary: less memory
    kept = words.take(g).view(np.uint8)
    del g, hi, lo, blank  # not held while the text rows below are made
    lead = (lead + ord("0")).astype(np.uint8)
    exp = exps.take(e).view(np.uint8).reshape(n, 4)  # sign and three digits

    # a "." is written as min(next byte, "."): a digit is above it, the pad below
    text = np.zeros((n, _WIDE), dtype=np.uint8)
    text[:, 0] = np.signbit(x).take(order) * np.uint8(ord("-"))
    b = 0
    for f, count in enumerate(np.bincount(form, minlength=_ZERO_FORM + 1).tolist()):
        a, b = b, b + count
        if not count:
            continue
        t, d, k = text[a:b], full[a:b], kept[a:b]
        if f == _ZERO_FORM:
            t[:, 1] = ord("0")
        elif f >= _EXP2:  # d.ddde+XX, or e+XXX
            t[:, 1] = lead[a:b]
            np.minimum(k[:, 0], ord("."), out=t[:, 2])
            _put(t[:, 3:19], k)
            t[:, 19] = ord("e")
            _put(t[:, 20:], exp[a:b])
            if f == _EXP2:
                t[:, 21] = 0
        elif f >= 4:  # the lead digit and f - 4 more before the point
            p = f - 4
            t[:, 1] = lead[a:b]
            if p:
                _put(t[:, 2 : 2 + p], d[:, :p])
            if p < 16:
                np.minimum(k[:, p], ord("."), out=t[:, 2 + p])
                _put(t[:, 3 + p : 19], k[:, p:])
        else:  # 0.ddd, 0.0ddd, 0.00ddd or 0.000ddd
            z = 3 - f
            _put(t[:, 1 : 3 + z], np.frombuffer(b"0.000"[: 2 + z], dtype=np.uint8)[None])
            t[:, 3 + z] = lead[a:b]
            _put(t[:, 4 + z : 20 + z], k)
    out = np.tile(rows, (n // len(rows), 1))
    out[0, :width] = list(first.ljust(width, b"\0"))
    number = f"V{_WIDE}"
    out[:, width:].view(number)[order, 0] = text.view(number)[:, 0]
    for i in np.flatnonzero(slow).tolist():
        digits = ("%.17g" % x[i]).encode("ascii")
        out[i, width:] = 0
        out[i, width : width + len(digits)] = list(digits)
    return out
