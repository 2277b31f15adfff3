"""CSV rows as bytes, built a chunk at a time with numpy.

Row k of the text holds item k of every column, joined by ``,`` and ended
by a newline. A column's type alone says how it is written, and no item is
looked at to decide: a float array as ``"{:.17g}".format`` writes each item,
a ``range`` or a signed-integer array as ``str`` writes each, and a sequence
of ``str`` as its texts. Float digits come from a fast path that decides
only what it can prove; ``format`` writes every value it cannot.

A chunk is one uint8 matrix: a fixed-width field per column, each ending
with its separator. Field bytes a row does not use hold 0xFF, which UTF-8
never contains, and the chunk's text is the matrix with every 0xFF deleted.
The matrix and the arrays the fields are computed in are made once per
``rows`` call and reused by every chunk.

Float digits. A finite nonzero ``a`` inside the exponent range is scaled to
``s = a * 10**(16 - E)``, ``E = floor(log10(a))``, into [1e16, 1e17), with
a double-double power of ten ``hi + lo`` and ``a * hi`` exact to double
length by Dekker's TwoProduct ("A floating-point technique for extending
the available precision", Numer. Math. 1971): ``s`` is known to about
1e-14. Its nearest integer, the 17 digits, is taken only when the fraction
is farther than ``_TIE_MARGIN`` from one half and the digits lie in the
decade ``E`` claims; held as two float64 integers below 2**53 (digits 0-8
and 9-16), they stay exact. Zeros are written directly. Every other value
goes to ``format``: non-finite values, values outside the exponent range,
ties and near ties, and misjudged decades. This is the
fast-path-plus-exact-fallback scheme of Loitsch, "Printing floating-point
numbers quickly and accurately with integers", PLDI 2010.
"""

from __future__ import annotations

import functools
import itertools
import math
import mmap
from collections.abc import Iterator, Sequence

import numpy as np

# Bytes of field slots per chunk, _FLOAT_BYTES per column and row (an int
# field is never wider); scratch adds about 150 bytes a row. At 1 << 18 the
# 4-column pid CSV of the loops benchmark raised its peak RSS by 0.4 MB.
CHUNK_BYTES = 3 << 16

_DROP = 0xFF  # a field byte the row does not use

# Decimal exponents the fast path takes: inside them no step of the scaled
# product overflows or underflows (Veltkamp's split multiplies by 2**27 + 1),
# and the scaled value stays below 1e18.
_E_MIN, _E_MAX = -280, 290
_A_MIN, _A_MAX = 10.0**_E_MIN, 10.0 ** (_E_MAX + 1)
# Magnitudes are clamped into [_A_ZERO, _A_TOP]. No value the fast path takes
# has _A_ZERO's exponent, whose table row holds the zero layout.
_A_ZERO, _A_TOP = 2.0**-940, math.nextafter(_A_MAX, 0.0)
_SPLITTER = 134217729.0  # 2**27 + 1
# Bound on the error of the scaled value's fraction (about 1e-14), with a
# wide safety factor.
_TIE_MARGIN = 1e-9
# x + _MAGIC holds an integer-valued float64 x, |x| < 2**51, in its low bits.
_MAGIC, _MAGIC_BITS = 6755399441055744.0, 0x4338000000000000  # 1.5 * 2**52

# A float field is four 8-byte words. Bytes 0-7: the sign, the "0.000"
# prefix of small fixed-point values, the leading digit and a dot slot.
# Bytes 8-23: the other 16 digits; where fixed point puts the dot among
# them, the digits after it move up a byte, the last into byte 24. Bytes
# 24-31: "e", the exponent's sign and three digits, two pad bytes and the
# separator. Each row keeps the bytes its %g form needs.
_FLOAT_BYTES = 32
_EXP_LOW = -330  # lowest exponent in the exponent-indexed tables
# Layout classes: fixed point (exponents -4..16), scientific with 2 and 3
# exponent digits, and zero ("0" or "-0").
_CLASSES = 24
_SCI2, _SCI3, _ZERO = 21, 22, 23


# The lookup tables. quad: uint32 "dddd" of 0..9999, plain, with leading
# zeros dropped (0 whole) and with leading zeros dropped but 0 as "0".
# exponent, by exponent - _EXP_LOW: float64 hi, hi_head, hi_tail, lo of
# 10**(16 - E), the class's first float_base row, masks of the digit bytes
# that move in words 1 and 2, the exponent word. float_base: see _tables.
_TABLE_SHAPES = [(np.uint32, (3, 10000)), (np.int64, (-2 * _EXP_LOW, 8)),
                 (np.uint64, (_CLASSES * 34, 4))]
_POWERS, _KEY, _MOVE, _EXP_WORD = slice(0, 4), 4, 5, 7  # _MOVE: two words


def _arena(shapes: Sequence[tuple]) -> list[np.ndarray]:
    """Arrays of the given (dtype, shape)s in an anonymous mapping of their
    own, unmapped when the last is freed. In the malloc heap they would split
    the free space that a run's large arrays reuse, and the heap would grow."""
    spans = [-(-np.dtype(dtype).itemsize * math.prod(shape) // 64) * 64 for dtype, shape in shapes]
    arena = mmap.mmap(-1, sum(spans))
    offsets = itertools.accumulate(spans, initial=0)
    return [np.frombuffer(arena, dtype, math.prod(shape), at).reshape(shape)
            for (dtype, shape), at in zip(shapes, offsets)]


@functools.cache
def _tables() -> list[np.ndarray]:
    """The lookup tables, built on first use from small temporaries."""
    tables = quad, exponent, float_base = _arena(_TABLE_SHAPES)
    quad = quad.view(np.uint8).reshape(3, 10000, 4)
    quad[:] = np.arange(10000, dtype=np.uint16)[:, None] // np.uint16([1000, 100, 10, 1]) % 10 + 48
    quad[1:, np.cumprod(quad[0] == 48, axis=1, dtype=bool)] = _DROP  # leading zeros
    quad[2, 0, 3] = ord("0")

    e10 = np.arange(_EXP_LOW, -_EXP_LOW)
    powers = exponent[:, _POWERS].view(np.float64)
    # Exponents outside the range (reached only by values the fast path does
    # not take) use the nearest power inside it, so no step overflows.
    for i, e in enumerate(np.clip(e10, _E_MIN - 1, _E_MAX + 1).tolist()):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den  # int / int rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        powers[i] = hi, 0.0, 0.0, (num * hi_den - hi_num * den) / (den * hi_den)
    c = _SPLITTER * powers[:, 0]  # Veltkamp's split, as the float field splits a
    powers[:, 1] = c - (c - powers[:, 0])
    powers[:, 2] = powers[:, 0] - powers[:, 1]
    fixed = (e10 >= -4) & (e10 < 17)
    cls = np.where(fixed, e10 + 4, np.where(np.abs(e10) < 100, _SCI2, _SCI3))
    cls[e10 == math.floor(math.log10(_A_ZERO))] = _ZERO
    exponent[:, _KEY] = 34 * cls
    stay = np.where(fixed & (e10 >= 1), e10, 16)  # digits 1.. before the dot
    for word, count in enumerate((np.minimum(stay, 8), np.maximum(stay - 8, 0))):
        exponent[:, _MOVE + word] = [-(1 << 8 * c) if c < 8 else 0 for c in count.tolist()]
    exponent[:, _EXP_WORD] = np.frombuffer(
        "".join(f"\0{e:+04d}\0\0\0" for e in e10.tolist()).encode("ascii"), dtype=np.int64)
    # Float field bytes for each (class, last digit kept, negative): the
    # template byte where the row keeps a constant, 0 where it keeps a digit
    # or exponent byte (those are OR-ed in), 0xFF where it drops the byte.
    base = float_base.view(np.uint8).reshape(-1, _FLOAT_BYTES)
    base[...] = _DROP
    for cls, last, neg in itertools.product(range(_CLASSES), range(17), (0, 1)):
        row, e10, fixed = base[(cls * 17 + last) * 2 + neg], cls - 4, cls < _SCI2
        dot = e10 if fixed else 0
        row[0] = ord("-") if neg else _DROP
        if cls == _ZERO:
            row[7] = ord("0")
            continue
        if e10 < 0 and fixed:  # "0." and -E - 1 zeros
            row[1:2 - e10] = np.frombuffer(b"0.000"[:1 - e10], dtype=np.uint8)
        row[6] = 0  # the leading digit
        for i in range(1, max(last, dot) + 1):  # digit i, after the dot's byte if moved
            row[7 + i + (0 < dot < i)] = 0
        if 0 <= dot < last:
            row[8 + dot if dot else 7] = ord(".")
        if not fixed:  # "e", then the exponent's sign and digits OR-ed in
            row[24:29] = ord("e"), 0, _DROP if cls == _SCI2 else 0, 0, 0
    for table in tables:
        table.flags.writeable = False
    return tables


def _rows(buffer: np.ndarray, m: int, width: int, start: int = 0) -> np.ndarray:
    """``m`` rows of ``width`` items of ``buffer``'s flat memory, from ``start``."""
    return buffer.reshape(-1)[start:start + m * width].reshape(m, width)


def _index(x: np.ndarray, offset: float) -> np.ndarray:
    """The integer-valued float64 ``x`` plus ``offset`` as int64, in place."""
    x += _MAGIC + offset
    return np.subtract(x.view(np.int64), _MAGIC_BITS, x.view(np.int64))


def _float_field(x: np.ndarray, field: np.ndarray, scratch: list) -> None:
    """Write ``format(v, ".17g")`` of each float64 ``v`` of ``x`` into the
    4-word uint64 ``field``, all but its separator byte."""
    (quad, table, float_base), m = _tables(), len(x)
    f, exponent, groups, bools, _ = scratch
    (f0, f1, f2, f3, f4, f5), (ok, zero, tmp) = f[:, :m], bools[:, :m]
    a = np.abs(x, f0)
    np.logical_and(np.greater_equal(a, _A_MIN, ok), np.less(a, _A_MAX, tmp), ok)  # not 0, nan, inf
    np.equal(a, 0.0, zero)
    np.fmin(np.fmax(a, _A_ZERO, out=a), _A_TOP, out=a)
    at = _index(np.floor(np.log10(a, f1), f1), -_EXP_LOW)
    exponent = np.take(table, at, axis=0, out=exponent[:m], mode="clip")
    hi, hi_head, hi_tail, lo = exponent[:, _POWERS].view(np.float64).T
    # s = a * 10**(16 - E) = p + err: p is a * hi rounded, err its exact
    # rounding error (Dekker's TwoProduct) plus a * lo.
    p = np.multiply(a, hi, f2)
    a_head = np.multiply(a, _SPLITTER, f3)
    a_head -= np.subtract(a_head, a, f4)
    a_tail = np.subtract(a, a_head, f4)
    err = np.subtract(np.multiply(a_head, hi_head, f5), p, f5)
    for u, v in ((a_head, hi_tail), (a_tail, hi_head), (a_tail, hi_tail), (a, lo)):
        err += np.multiply(u, v, f1)
    n = np.rint(p, f0)  # p < 1e18: the decade is at most one off
    r = np.add(np.subtract(p, n, f3), err, f3)  # p - n is exact
    r -= np.rint(r, near := f4)
    # The digits n + near as high * 1e8 + low, exactly (Sterbenz). fl(1e-8)
    # and fl(1e-4) exceed 1e-8 and 1e-4, so x * fl(1e-8) floors to x // 1e8
    # for integers x < 2**53; for n it may floor one too high (low < 0).
    high = np.floor(np.multiply(n, 1e-8, f2), f2)
    low = np.add(np.subtract(n, np.multiply(high, 1e8, f1), f5), near, f5)
    # format() decides when low carries, when the digits lie outside [1e16,
    # 1e17) (a misjudged decade) or are 1e16 from below (the decade below).
    ok &= np.less(np.abs(np.subtract(low, 49999999.5, f1), f1), 5e7, tmp)
    ok &= np.less(np.abs(r, f1), 0.5 - _TIE_MARGIN, tmp)
    ok &= np.less(np.abs(np.subtract(high, 549999999.5, f1), f1), 4.5e8, tmp)
    np.add(np.subtract(np.add(high, low, f1), 1e8, f1), r, f1)  # < 0 below 1e16
    ok &= np.greater_equal(f1, 0.0, tmp)
    ok |= zero
    # The leading digit, and digits 1-8 in place of high; digits 1-8 and
    # 9-16 as four-digit groups, then as two words of ASCII digits.
    lead = np.floor(np.multiply(high, 1e-8, f1), f1)
    high -= np.multiply(lead, 1e8, f3)
    for half, (top, bottom) in zip((high, low), groups[:m].reshape(m, 2, 2).transpose(1, 2, 0)):
        np.floor(np.multiply(half, 1e-4, top), top)
        np.subtract(half, np.multiply(top, 1e4, bottom), bottom)
    digits = _rows(f, m, 2, 3 * f.shape[1]).view(np.uint32)  # rows f3 and f4
    digits = np.take(quad[0], _index(groups[:m], 0.0), out=digits, mode="clip").view(np.uint64)
    # The last nonzero digit, from the float64 exponent of each word of digit
    # values: scaled by 2**-1015 and 2**-951, ``>> 55`` gives the position of
    # the word's last nonzero digit (1-8, 9-16), or 0 for a word of zeros.
    values = np.bitwise_xor(digits, 0x3030303030303030, _rows(groups, m, 2).view(np.uint64))
    last = _rows(groups, 2, m, 2 * m)
    np.copyto(last, values.T.view(np.int64), casting="unsafe")
    np.multiply(last, ((2.0**-1015,), (2.0**-951,)), last)
    last = np.right_shift(last.view(np.int64), 55, last.view(np.int64))
    key = np.maximum(last[0], last[1], out=f0.view(np.int64))
    np.add(np.add(key, key, key), exponent[:, _KEY], key)
    key += np.signbit(x, tmp)
    base = np.take(float_base, key, axis=0, out=groups[:m].view(np.uint64), mode="clip")
    lead += _MAGIC + 48.0  # the leading digit's byte in the low bits, shifted up
    np.bitwise_or(base[:, 0], np.left_shift(lead.view(np.uint64), 48, lead.view(np.uint64)),
                  field[:, 0])
    np.bitwise_or(base[:, 3], exponent[:, _EXP_WORD].view(np.uint64), field[:, 3])
    # Digits after the dot's byte move up a byte (w + moved * 255 is w with
    # moved shifted up), the top byte of a word into the next word. A row
    # moves digits only if 1 <= E <= 15, exactly when its word-2 mask is not 0.
    if not exponent[:, _MOVE + 1].any():  # word by word: a 2-wide 2-D ufunc call is slower
        for w in (1, 2):
            np.bitwise_or(base[:, w], digits[:, w - 1], field[:, w])
    else:
        moved, word = f2.view(np.uint64), f5.view(np.uint64)
        for w in (2, 1):
            np.bitwise_and(digits[:, w - 1], exponent[:, _MOVE + w - 1].view(np.uint64), moved)
            np.bitwise_or(base[:, w], np.add(digits[:, w - 1], np.multiply(moved, 255, word), word),
                          field[:, w])
            field[:, w + 1] |= np.right_shift(moved, 56, moved)

    if not ok.all():
        fallback = np.flatnonzero(np.logical_not(ok, tmp))
        _text_field(_Texts([format(v, ".17g") for v in x[fallback].tolist()]),
                    field.view(np.uint8), fallback)


def _int_field(v: np.ndarray, field: np.ndarray, scratch: list) -> None:
    """Write ``str`` of each int64 of ``v`` into the uint32 ``field``, all but its
    separator byte: a sign word, four-digit words, and a last word of 0xFF."""
    m, quad, bools = len(v), _tables()[0].reshape(-1), scratch[3]
    mag, quotient, group, text = (f.view(np.uint64) for f in scratch[0][:4, :m])
    np.abs(v, mag.view(np.int64))  # int64 min gives 2**63
    sign = np.multiply(np.less(v, 0, bools[0, :m]), np.uint32(0xD2 << 24), field[:, 0])
    np.subtract(0xFFFFFFFF, sign, sign)  # 0xFF - "-" off the top byte of negatives
    field[:, -1] = 0xFFFFFFFF
    # Words last first; a word with nothing above it is read from the second
    # table (from the third for the last word, which writes 0 as "0").
    for word in range(digit_words := field.shape[1] - 2, 0, -1):
        np.floor_divide(mag, 10000, quotient)
        np.subtract(mag, np.multiply(quotient, 10000, group), group)
        mag, quotient = quotient, mag
        top = np.equal(mag, 0, bools[0, :m])
        group += np.multiply(top, np.uint64(10000 if word < digit_words else 20000), quotient)
        field[:, word] = np.take(quad, group, out=text.view(np.uint32)[:m], mode="clip")


class _Texts:
    """A column chunk of texts as its distinct UTF-8 encodings and the index
    of each item's: a column of a few symbols is laid out once per symbol."""

    def __init__(self, items: list[str]) -> None:
        code = {s: i for i, s in enumerate(dict.fromkeys(items))}
        self.index = np.array(list(map(code.__getitem__, items)), dtype=np.intp)
        self.distinct = [s.encode("utf-8") for s in code]
        self.width = max(1, max(map(len, self.distinct)))


def _text_field(texts: _Texts, field: np.ndarray, rows=slice(None)) -> None:
    """Write ``texts`` left-aligned into the uint8 ``field[rows]``, 0xFF
    after each text, all but its separator byte."""
    data, width = texts.distinct, texts.width
    table = np.full((len(data), field.shape[1] - 1), _DROP, dtype=np.uint8)
    table[:, :width] = np.array(data, dtype=f"S{width}").view(np.uint8).reshape(len(data), width)
    # Past each text's end the array holds NUL padding: mark it dropped.
    table[np.arange(table.shape[1]) >= np.array(list(map(len, data)))[:, None]] = _DROP
    field[rows, :-1] = np.take(table, texts.index, axis=0)


def _kind(column) -> str:
    """'float', 'int' or 'text': how a column of this type is written."""
    if not isinstance(column, np.ndarray):
        return "int" if isinstance(column, range) else "text"
    if column.dtype.kind not in "fi":
        raise TypeError(f"an array column must hold floats or signed integers, not {column.dtype}")
    return "float" if column.dtype.kind == "f" else "int"


def _chunk(column, kind: str, start: int, stop: int):
    """Rows ``start:stop`` of a column in the form its field takes: a float64
    or int64 array, or texts."""
    part = column[start:stop]
    if kind == "text":
        return _Texts(list(part))
    if isinstance(part, range):
        return np.arange(part.start, part.stop, part.step, dtype=np.int64)
    return part.astype(np.float64 if kind == "float" else np.int64, copy=False)


def _width(values) -> int:
    """Bytes of the field that holds ``values``, separator included, in whole
    8-byte words: an int field is a sign word, four-digit words and 0xFF."""
    if isinstance(values, _Texts):
        return -(-(values.width + 1) // 8) * 8
    if values.dtype == np.float64:
        return _FLOAT_BYTES
    digits = len(str(max(-int(values.min()), int(values.max()))))
    return -(-(4 * -(-digits // 4) + 5) // 8) * 8


def chunk_rows(columns: int) -> int:
    """Rows in each chunk ``rows`` yields for ``columns`` columns."""
    return max(1, CHUNK_BYTES // (_FLOAT_BYTES * columns))


def rows(*columns: Sequence) -> Iterator[bytes]:
    """CSV body lines, row k made of item k of every column, as UTF-8 bytes
    in chunks of ``chunk_rows(len(columns))`` rows, the last maybe fewer.
    Columns are of equal length, each a float array (written as
    ``format(v, ".17g")``), a ``range`` or signed-integer array (as ``str``)
    or a sequence of ``str``; any other array is a TypeError."""
    if not columns or len(columns[0]) == 0:
        return
    kinds = list(map(_kind, columns))
    n = min(step := chunk_rows(len(columns)), total := len(columns[0]))
    scratch = _arena([(np.float64, (6, n)), (np.int64, (n, 8)), (np.float64, (n, 4)),
                      (bool, (3, n)), (np.uint8, (n * _FLOAT_BYTES * len(columns),))])
    for start in range(0, total, step):
        stop = min(start + step, total)
        values = [_chunk(c, kind, start, stop) for c, kind in zip(columns, kinds)]
        widths = [_width(v) for v in values]
        size = (stop - start) * sum(widths)  # beyond the slots only for wide text
        matrix = scratch[-1] if size <= scratch[-1].size else np.empty(size, np.uint8)
        mat = _rows(matrix, stop - start, sum(widths))
        at = 0
        for v, width in zip(values, widths):
            field = mat[:, at:at + width]
            if isinstance(v, _Texts):
                _text_field(v, field)
            elif v.dtype == np.float64:
                _float_field(v, field.view(np.uint64), scratch)
            else:
                _int_field(v, field.view(np.uint32), scratch)
            at += width
            mat[:, at - 1] = ord(",")
        mat[:, -1] = ord("\n")
        yield mat.tobytes().translate(None, b"\xff")
