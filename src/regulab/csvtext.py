"""CSV rows as bytes, built a chunk at a time with numpy.

Row k of the text holds item k of every column, joined by ``,`` and ended
by a newline. A column whose first item is a float is written as
``"{:.17g}".format`` writes each item; a column of integers (a ``range``, an
integer array, or a list or tuple of ``int`` within int64) as ``str`` writes
each; any other column item by item as ``"{}".format`` writes it, which is
``str`` for every built-in type. The bytes are the ones
those calls give: float digits come from a fast path that decides only what
it can prove, and every value it cannot decide is formatted by ``format``.

A chunk of rows is one uint8 matrix: a fixed-width field per column, each
ending with its separator. Field bytes a row does not use hold 0xFF, a byte
UTF-8 never contains, and the chunk's text is the matrix with every 0xFF
deleted.

Float digits. A finite nonzero value ``a`` inside the table's exponent range
is scaled to ``s = a * 10**(16 - E)``, with ``E = floor(log10(a))``, so that
``s`` lies in [1e16, 1e17). The power of ten is a double-double ``hi + lo``,
and ``a * hi`` is computed as an exact double-length product by Dekker's
TwoProduct ("A floating-point technique for extending the available
precision", Numer. Math. 1971), so ``s`` is known to within about 1e-14.
Its nearest integer, the 17 significant digits, is taken only when the
fraction is farther than ``_TIE_MARGIN`` from one half and the digits lie
in the decade ``E`` claims. Zeros are written directly ("0" or "-0").
Every other value goes to ``format``: non-finite values, values outside the
exponent range, near and exact ties, and values whose decade the logarithm
misjudged. This is the
fast-path-plus-exact-fallback scheme of Loitsch, "Printing floating-point
numbers quickly and accurately with integers", PLDI 2010.
"""

from __future__ import annotations

import functools
import itertools
import math
import mmap
from collections.abc import Collection, Iterator, Sequence
from typing import NamedTuple

import numpy as np

# Rows built per chunk: bounds the temporaries held at once. On a 10**6-row
# series run, 2048 rows raised the peak resident set by about 4 MB.
CHUNK_ROWS = 1024

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_DROP = 0xFF  # a field byte the row does not use

# Decimal exponents the fast path takes: inside them no step of the scaled
# product overflows or underflows (Veltkamp's split multiplies by 2**27 + 1),
# and the scaled value stays below 1e18, inside int64.
_E_MIN, _E_MAX = -280, 290
_A_MIN, _A_MAX = 10.0**_E_MIN, 10.0 ** (_E_MAX + 1)
# The power table also covers one exponent past either end, which a
# logarithm rounded across a power of ten can give.
_K_MIN, _K_MAX = 16 - (_E_MAX + 1), 16 - (_E_MIN - 1)
_SPLITTER = 134217729.0  # 2**27 + 1
# Bound on the error of the scaled value's fraction (about 1e-14), with a
# wide safety factor.
_TIE_MARGIN = 1e-9

# Fields are whole 8-byte words, so that a chunk can be read as uint64 and
# uint32 words and the digits written a word at a time; the last byte of a
# field is its separator, "," or a newline.
#
# A float field, 7 words: two pad bytes, the sign and the "0.000" prefix of
# small fixed-point values; the 17 digits zero-padded to 20, four to a word,
# each followed by a dot slot; then "e", the exponent's sign and three
# digits. Each row keeps the bytes its %g form needs.
_FLOAT_TEMPLATE = b"\xff\xff-0.000" + b"0." * 20 + b"e+000\xff\xff,"
_EXP_LOW = -330  # lowest exponent in the exponent-indexed tables
# Layout classes: fixed point for exponents -4..16, scientific with two and
# with three exponent digits, and zero ("0" or "-0"). Zero takes the first
# row of the exponent-indexed tables, which no nonzero value reaches.
_CLASSES = 24
_SCI2, _SCI3, _ZERO = 21, 22, 23


class _Tables(NamedTuple):
    powers: np.ndarray  # rows hi, hi_head, hi_tail, lo of 10**k, k from _K_MAX down
    quad: np.ndarray  # uint32 words "dddd" of 0..9999
    quad_dotted: np.ndarray  # uint64 words "d.d.d.d." of 0..9999
    trailing_zeros: np.ndarray  # of 0..9999 as four digits (4 for 0)
    # Indexed by exponent - _EXP_LOW:
    class_key: np.ndarray  # layout class * 34, the class's stride in float_base
    dot: np.ndarray  # digit the dot follows in fixed point (< 0: "0." prefix), else 0
    exponent: np.ndarray  # uint64 words of 0, sign and 3 digits
    float_base: np.ndarray  # (24 * 17 * 2, 7) uint64, by (class, last digit, sign)
    ten_powers: np.ndarray  # uint64 10**0 .. 10**19


_EXPONENTS = -2 * _EXP_LOW
_TABLE_SHAPES = _Tables(
    (np.float64, (4, _K_MAX - _K_MIN + 1)), (np.uint32, (10000,)), (np.uint64, (10000,)),
    (np.int8, (10000,)), (np.int64, (_EXPONENTS,)), (np.int64, (_EXPONENTS,)),
    (np.uint64, (_EXPONENTS,)), (np.uint64, (_CLASSES * 34, len(_FLOAT_TEMPLATE) // 8)),
    (np.uint64, (20,)),
)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``a == head + tail`` exactly, 26 bits each."""
    c = _SPLITTER * a
    head = c - (c - a)
    return head, a - head


@functools.cache
def _tables() -> _Tables:
    """The lookup tables, built on first use in an anonymous mapping of
    their own, from small temporaries. Built in the malloc heap in the
    middle of a run, they and their temporaries would split the free space
    that the run's large arrays reuse, and the heap would grow."""
    spans = [-(-np.dtype(dtype).itemsize * math.prod(shape) // 64) * 64
             for dtype, shape in _TABLE_SHAPES]
    arena = mmap.mmap(-1, sum(spans))
    offsets = itertools.accumulate(spans, initial=0)
    t = _Tables(*(np.frombuffer(arena, dtype, math.prod(shape), at).reshape(shape)
                  for (dtype, shape), at in zip(_TABLE_SHAPES, offsets)))

    for i, k in enumerate(range(_K_MAX, _K_MIN - 1, -1)):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # int / int rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        t.powers[:, i] = hi, 0.0, 0.0, (num * hi_den - hi_num * den) / (den * hi_den)
    t.powers[1], t.powers[2] = _split(t.powers[0])

    # Digit i of 0..9999, broadcast over the other three.
    quad = t.quad.view(np.uint8).reshape(10, 10, 10, 10, 4)
    dotted = t.quad_dotted.view(np.uint8).reshape(10, 10, 10, 10, 8)
    dotted[...] = ord(".")
    zeros = t.trailing_zeros.reshape(10, 10, 10, 10)
    zeros[...] = 0
    all_zero = np.ones(zeros.shape, dtype=np.int8)
    for i in range(3, -1, -1):
        shape = [1, 1, 1, 1]
        shape[i] = 10
        quad[..., i] = dotted[..., 2 * i] = np.arange(48, 58, dtype=np.uint8).reshape(shape)
        all_zero *= np.array([1] + [0] * 9, dtype=np.int8).reshape(shape)
        zeros += all_zero

    e10 = np.arange(_EXP_LOW, -_EXP_LOW)
    fixed = (e10 >= -4) & (e10 < 17)
    t.class_key[:] = 34 * np.where(fixed, e10 + 4, np.where(np.abs(e10) < 100, _SCI2, _SCI3))
    t.class_key[0] = 34 * _ZERO
    t.dot[:] = np.where(fixed, e10, 0)
    t.exponent.view(np.uint8)[:] = np.frombuffer(
        "".join(f"\0{e:+04d}\0\0\0" for e in e10.tolist()).encode("ascii"), dtype=np.uint8)
    _fill_float_base(t.float_base.view(np.uint8).reshape(-1, len(_FLOAT_TEMPLATE)))
    t.ten_powers[:] = [10**i for i in range(20)]
    for table in t:
        table.flags.writeable = False
    return t


def _fill_float_base(base: np.ndarray) -> None:
    """Float field bytes for each (class, last digit kept, negative): the
    template byte where the row keeps a constant, 0 where it keeps a digit
    or exponent byte (those are OR-ed in), 0xFF where it drops the byte."""
    base[...] = _DROP
    for cls in range(_CLASSES):
        e10, fixed = cls - 4, cls < _SCI2
        dot = e10 if fixed else 0
        for last in range(17):
            for neg in (0, 1):
                row = base[(cls * 17 + last) * 2 + neg]
                if neg:
                    row[2] = ord("-")
                if cls == _ZERO:
                    row[3] = ord("0")
                    continue
                if fixed and e10 < 0:  # "0." and -E - 1 zeros
                    row[3:4 - e10] = np.frombuffer(b"0.000"[:1 - e10], dtype=np.uint8)
                row[14:16 + 2 * last:2] = 0  # digits 0..last, OR-ed in
                if 0 <= dot < last:
                    row[15 + 2 * dot] = ord(".")
                if not fixed:
                    row[48] = ord("e")
                    row[49:53] = 0  # exponent sign and digits, OR-ed in
                    if cls == _SCI2:
                        row[50] = _DROP


def _float_field(x: np.ndarray, field: np.ndarray) -> None:
    """Write ``format(v, ".17g")`` of each float64 ``v`` of ``x`` into the
    7-word uint64 ``field``, all but its separator byte."""
    t = _tables()
    a = np.abs(x)
    ok = (a >= _A_MIN) & (a < _A_MAX)  # False for zeros, nan and inf
    zero = a == 0
    a = np.where(ok, a, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    k = e10 - (16 - _K_MAX)
    hi, hi_head, hi_tail, lo = (power[k] for power in t.powers)
    # s = a * 10**(16 - E) = p + err: p is a * hi rounded, err its exact
    # rounding error (Dekker's TwoProduct) plus a * lo.
    p = a * hi
    a_head, a_tail = _split(a)
    err = (((a_head * hi_head - p) + a_head * hi_tail + a_tail * hi_head)
           + a_tail * hi_tail) + a * lo
    n = np.rint(p)  # p < 1e18: the decade is at most one off
    frac = (p - n) + err  # p - n is exact
    m = np.rint(frac)
    r = frac - m
    d = n.astype(np.int64) + m.astype(np.int64)
    # Digits outside [1e16, 1e17) mean the logarithm misjudged the decade,
    # and 1e16 from below may belong to the decade below: format() decides.
    above = d - 10**16
    ok &= ((np.abs(r) < 0.5 - _TIE_MARGIN) & (above.view(np.uint64) < 9 * 10**16)
           & ((above != 0) | (r >= 0)))
    at = np.where(zero, 0, e10 - _EXP_LOW)  # row 0: the zero layout
    ok |= zero

    # Four-digit groups, last first; the first group is the leading digit.
    groups = []
    for _ in range(4):
        d, group = np.divmod(d, 10000)
        groups.append(group)
    groups.append(d)
    tz_of = t.trailing_zeros
    g4, g3, g2, g1 = groups[:4]
    tz = tz_of[g4] + (g4 == 0) * (tz_of[g3] + (g3 == 0) * (tz_of[g2] + (g2 == 0) * tz_of[g1]))
    last = np.maximum(t.dot[at], 16 - tz)
    field[:] = np.take(t.float_base, t.class_key[at] + 2 * last + np.signbit(x), axis=0)
    for word, group in zip(range(5, 0, -1), groups):
        field[:, word] |= t.quad_dotted[group]
    field[:, 6] |= t.exponent[at]

    fallback = np.flatnonzero(~ok)
    if len(fallback):
        texts = _Texts([format(v, ".17g") for v in x[fallback].tolist()])
        _text_field(texts, field.view(np.uint8), fallback)


@functools.cache
def _int_base(groups: int) -> np.ndarray:
    """Int field words for each (digit count, negative): the sign word
    ("-" or 0xFF), then the digit words with 0xFF on each leading pad digit
    and 0 where a digit is OR-ed in, then 0xFF up to the separator."""
    width = _int_width(groups)
    count = np.arange(4 * groups + 1)[:, None, None]
    neg = np.arange(2)[None, :, None]
    pos = np.arange(width)[None, None, :]
    digit = (pos >= 4) & (pos < 4 + 4 * groups)
    keep = ((pos == 3) & (neg == 1)) | (digit & (pos >= 4 + 4 * groups - count))
    base = np.where(keep, np.where(digit, 0, ord("-")), _DROP).astype(np.uint8)
    return base.reshape(-1, width).view(np.uint32)


def _int_width(groups: int) -> int:
    """Bytes of an int field: a sign word, the digit words and a separator,
    rounded up to whole 8-byte words."""
    return -(-(4 * groups + 5) // 8) * 8


def _int_groups(v: np.ndarray) -> int:
    """Four-digit groups that the largest magnitude in ``v`` needs."""
    return -(-len(str(max(-int(v.min()), int(v.max())))) // 4)


def _int_field(v: np.ndarray, field: np.ndarray) -> None:
    """Write ``str`` of each int64 of ``v`` into the uint32 ``field``, all
    but its separator byte."""
    t = _tables()
    neg = v < 0
    mag = v.astype(np.uint64)
    mag[neg] = -mag[neg]  # modulo 2**64, so int64 min gives 2**63
    count = np.maximum(np.searchsorted(t.ten_powers, mag, side="right"), 1)
    groups = _int_groups(v)
    field[:] = np.take(_int_base(groups), 2 * count + neg, axis=0)
    for word in range(groups, 0, -1):
        mag, group = np.divmod(mag, 10000)
        field[:, word] |= t.quad[group]


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
    """'float', 'int' or 'text': how a whole column is written."""
    if isinstance(column[0], float):
        return "float"
    if isinstance(column, range):
        ends = (column[0], column[-1])
        ints = _INT64_MIN <= min(ends) and max(ends) <= _INT64_MAX
    elif isinstance(column, np.ndarray):
        ints = column.dtype.kind == "i" or (column.dtype.kind == "u" and
                                            int(column.max()) <= _INT64_MAX)
    else:
        ints = (set(map(type, column)) == {int}
                and _INT64_MIN <= min(column) and max(column) <= _INT64_MAX)
    return "int" if ints else "text"


def _chunk(column, kind: str, start: int, stop: int):
    """Rows ``start:stop`` of a column in the form its field takes: a float64
    or int64 array, or texts."""
    part = column[start:stop]
    if kind == "int":
        if isinstance(part, range):
            return np.arange(part.start, part.stop, part.step, dtype=np.int64)
        return np.asarray(part, dtype=np.int64)
    if isinstance(part, np.ndarray):
        if kind == "float" and part.dtype.kind == "f":
            return part.astype(np.float64, copy=False)
        part = part.tolist()
    if kind == "text":
        return _Texts(list(map(format, part)))
    if all(issubclass(t, (float, int)) for t in set(map(type, part))):
        return np.array(part, dtype=np.float64)
    return _Texts([format(v, ".17g") for v in part])


def _width(values) -> int:
    """Bytes of the field that holds ``values``, separator included."""
    if isinstance(values, _Texts):
        return -(-(values.width + 1) // 8) * 8
    if values.dtype == np.float64:
        return len(_FLOAT_TEMPLATE)
    return _int_width(_int_groups(values))


def rows(*columns: Sequence, floats: Collection[int] = ()) -> Iterator[bytes]:
    """CSV body lines, row k made of item k of every column, as UTF-8 bytes
    in chunks of up to ``CHUNK_ROWS`` rows. Columns are equal-length
    ranges, tuples, lists or numpy arrays; the columns whose indices are in
    ``floats`` are written as floats whatever their first item."""
    if not columns or len(columns[0]) == 0:
        return
    kinds = ["float" if i in floats else _kind(c) for i, c in enumerate(columns)]
    for start in range(0, len(columns[0]), CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, len(columns[0]))
        values = [_chunk(c, kind, start, stop) for c, kind in zip(columns, kinds)]
        widths = [_width(v) for v in values]
        mat = np.empty((stop - start, sum(widths)), dtype=np.uint8)
        at = 0
        for v, width in zip(values, widths):
            field = mat[:, at:at + width]
            if isinstance(v, _Texts):
                _text_field(v, field)
            elif v.dtype == np.float64:
                _float_field(v, field.view(np.uint64))
            else:
                _int_field(v, field.view(np.uint32))
            at += width
            mat[:, at - 1] = ord(",")
        mat[:, -1] = ord("\n")
        yield mat.tobytes().translate(None, b"\xff")
