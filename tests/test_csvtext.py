"""CSV writer: the bytes ``"{:.17g}".format`` and ``str`` give, on any column
of the types it takes."""

import itertools
import math
import mmap
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regulab import csvtext


def reference(*columns) -> bytes:
    """Row k of every column, formatted one row at a time: ``{:.17g}`` for a
    float array, ``{}`` for any other column."""
    floats = [isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns]
    row = ",".join("{:.17g}" if f else "{}" for f in floats) + "\n"
    lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    return "".join(map(row.format, *lists)).encode("utf-8")


def written(*columns) -> bytes:
    """The writer's bytes, with every numpy warning and error raised."""
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        return b"".join(csvtext.rows(*columns))


def assert_same(*columns):
    want, got = reference(*columns), written(*columns)
    if want != got:
        bad = [(w, g) for w, g in zip(want.split(b"\n"), got.split(b"\n")) if w != g]
        pytest.fail(f"{len(bad)} rows differ, first {bad[:3]}")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_any_floats(values):
    assert_same(np.array(values))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=1, max_size=50))
def test_any_int64s(values):
    assert_same(np.array(values, dtype=np.int64))


def test_a_million_random_bit_patterns():
    bits = np.random.default_rng(20260418).integers(0, 2**64, size=10**6, dtype=np.uint64)
    assert_same(bits.view(np.float64))


def test_every_power_of_ten_and_its_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_same(powers)
    assert_same(-powers)
    assert_same(np.nextafter(powers, np.inf))
    assert_same(np.nextafter(powers, 0.0))


def is_tie(x: float) -> bool:
    """Whether x lies exactly halfway between two 17-digit decimals."""
    digits = Decimal(x).as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def test_exact_decimal_ties():
    dyadic = [m * 2.0**-k for k in range(1075) for m in (1, 3, 5, 7, 9, 11, 13, 15)]
    ties = [x for x in dyadic if x > 0 and is_tie(x)]
    assert len(ties) >= 10  # e.g. 2**-25 = 2.98023223876953125e-08
    assert_same(np.array(ties))
    assert_same(np.array(dyadic))


def near_ties() -> list[float]:
    """Doubles a with a * 1e23 or a * 1e24 (powers of ten no double holds)
    within 2**-40 of halfway between two integers, none exactly halfway."""
    found = []
    for k in (23, 24):
        for u in range(40, 53):
            inverse = pow(5**k, -1, 2**u)
            for offset in (1, -1, 2, -2, 3, -3):
                m = ((2 ** (u - 1) + offset) * inverse) % 2**u
                while m < 2**53:
                    scaled = Fraction(m * 5**k, 2**u)  # m * 2**-(u + k) * 10**k
                    if m >= 2**52 and 10**16 <= scaled < 10**17:
                        found.append(math.ldexp(m, -(u + k)))
                    m += 2**u
    return found


def test_near_ties_at_an_inexact_power_of_ten():
    ties = near_ties()
    assert len(ties) >= 40
    assert_same(np.array(ties))
    assert_same(-np.array(ties))


def test_special_floats():
    assert_same(np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                          2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                          1.0, 0.1, 1e16, 1e17, 1e-5, 1e-4, 9.9999999999999995e-05,
                          99999999999999999.0, 0.5]))


def test_int64_limits_and_zero():
    assert_same(np.array([-(2**63), 2**63 - 1, 0, -1, 1, 9, 10, -10, 10**18, -(10**18)]))
    assert_same(range(-3, 4))
    assert_same(range(2**63 - 5, 2**63))


# Floats that take the format() fallback, and -0.0, which is written directly.
SEAM_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-300, 1e300, 2.0**-25]


def test_columns_of_every_kind_across_chunks():
    step = csvtext.chunk_rows(5)
    n = 2 * step + 20
    r = np.random.default_rng(5)
    floats = r.standard_normal(n) * 10.0 ** r.integers(-30, 30, n)
    # No value of the middle chunk has a dot among its digits (1 <= E <= 15),
    # and the last chunk has its dots only after digit 8 (8 <= E <= 15).
    exponents = r.choice([-20, -3, 0, 16, 20], step)
    floats[step:2 * step] = r.choice([-1.0, 1.0], step) * r.uniform(1, 10, step) * 10.0**exponents
    floats[2 * step:] = r.uniform(1, 10, 20) * 10.0 ** r.integers(8, 16, 20)
    ints = r.integers(-10**6, 10**6, n)
    symbols = [f"s{i % 7}" for i in range(n)]
    singles = r.random(n).astype(np.float32)
    assert_same(range(n), floats, ints, symbols, singles)
    # The same columns with values of every other route on both sides of each
    # chunk boundary.
    special = SEAM_FLOATS + near_ties()[:1]
    for boundary in (step, 2 * step):
        for at in range(boundary - len(special), boundary + len(special)):
            floats[at] = special[at % len(special)]
            ints[at] = -(2**63) if at % 2 else 2**63 - 1
            symbols[at] = "é€😀"
    assert_same(range(n), floats, ints, symbols, singles)


# Floats that runs of equal values are drawn from: zeros of both signs, the
# fallback values (nan, infinities, the least subnormal and the near tie
# near_ties()[0]) and two the fast path writes.
RUN_FLOATS = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 9.962711698787393e-07,
                       1.5, -2.25e-7])


@st.composite
def runs_of(draw, n: int) -> np.ndarray:
    """``n`` floats of RUN_FLOATS in runs of drawn values and lengths."""
    runs = draw(st.lists(st.tuples(st.integers(0, len(RUN_FLOATS) - 1), st.integers(1, n)),
                         min_size=1, max_size=8))
    picks, lengths = zip(*runs)
    return np.resize(np.repeat(RUN_FLOATS[list(picks)], lengths), n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_runs_of_equal_floats_across_columns_and_chunks(data):
    floats = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 2 * csvtext.chunk_rows(floats + 2) + 3))
    columns = [data.draw(runs_of(n)) for _ in range(floats)]
    single = data.draw(st.integers(0, floats - 1))
    columns[single] = columns[single].astype(np.float32)
    columns += [np.arange(n) % 7 - 3, [f"s{i // 5 % 3}" for i in range(n)]]
    assert_same(*data.draw(st.permutations(columns)))


def test_each_chunk_formats_its_float_columns_in_one_call(monkeypatch):
    formatted = []
    float_field = csvtext._float_field

    def counted(x, field, scratch):
        formatted.append(len(x))
        float_field(x, field, scratch)

    monkeypatch.setattr(csvtext, "_float_field", counted)
    step = csvtext.chunk_rows(4)
    r = np.random.default_rng(7)
    x, u, e = r.random((3, step + 5))  # pid's columns: tick, x, u, e
    assert_same(range(step + 5), x, u, e)
    assert formatted == [3 * step, 15]
    formatted.clear()
    assert_same(range(step), np.full(step, 0.25), np.full(step, 0.25), np.full(step, 0.25))
    assert formatted == [1]


def test_a_long_series_is_written_in_chunks_of_at_most_a_mebibyte():
    chunks = list(csvtext.rows(range(10**6), np.random.default_rng(6).random(10**6)))
    assert len(chunks) > 1
    assert max(map(len, chunks)) <= 2**20


def layouts() -> list[tuple]:
    """Tables of different layouts, together through every route: fallback
    floats, int64 extremes, text wider than its slots and non-ASCII, eight
    float columns (the most float values a chunk holds) and a long table."""
    step = csvtext.chunk_rows(3)
    n = step + len(SEAM_FLOATS)
    r = np.random.default_rng(8)
    floats = r.standard_normal(n)
    floats[step - 4:step + 4] = SEAM_FLOATS
    ints = r.integers(-10**6, 10**6, n)
    ints[step - 2:step + 2] = -(2**63), 2**63 - 1, -(2**63), 2**63 - 1
    wide = [f"é€😀{i % 3}" * 20 for i in range(csvtext.chunk_rows(1) + 3)]
    many = r.random((8, csvtext.chunk_rows(8) + 1)) * 10.0 ** r.integers(-30, 30, 8)[:, None]
    return [(range(n), floats, ints), (wide,), (np.array(SEAM_FLOATS), [f"s{i}" for i in range(8)]),
            tuple(many), (np.array([-(2**63), 2**63 - 1, 0]),), (range(10**6, 10**6 + 7),),
            (np.arange(csvtext.LONG_ROWS) * 0.1,), (np.array([0.5, -0.0]), ["x", "y"])]


def test_tables_written_back_to_back_keep_their_bytes():
    tables = layouts()
    for order in (tables, tables[::-1], tables + tables):
        assert [written(*t) for t in order] == [reference(*t) for t in order]


def test_tables_written_in_turn_keep_their_bytes(monkeypatch):
    # One table holds the kept scratch; each other maps its own while alive.
    monkeypatch.setattr(csvtext, "_kept", [])
    tables = layouts()
    turns = itertools.zip_longest(*(csvtext.rows(*t) for t in tables), fillvalue=b"")
    assert list(map(b"".join, zip(*turns))) == [reference(*t) for t in tables]
    assert len(csvtext._kept) == 1


def test_a_writer_closed_after_its_first_chunk_gives_its_scratch_back(monkeypatch):
    monkeypatch.setattr(csvtext, "_kept", [])
    step = csvtext.chunk_rows(2)
    x = np.random.default_rng(9).random(2 * step)
    writer = csvtext.rows(range(2 * step), x)
    assert next(writer) == reference(range(step), x[:step])
    assert csvtext._kept == []  # held while the writer is alive
    writer.close()
    [scratch] = csvtext._kept
    assert_same(np.array(SEAM_FLOATS), range(8))
    assert csvtext._kept == [scratch]


def test_short_tables_in_one_process_map_scratch_once(monkeypatch):
    csvtext._tables()  # mapped once a process
    monkeypatch.setattr(csvtext, "_kept", [])
    maps = []
    mapping = mmap.mmap

    def counted(*args):
        maps.append(args)
        return mapping(*args)

    monkeypatch.setattr(mmap, "mmap", counted)
    assert_same(range(5), np.linspace(0, 1, 5))
    assert_same(*np.random.default_rng(10).random((8, csvtext.chunk_rows(8) + 1)))
    assert len(maps) == 1


@pytest.mark.parametrize("n, step", [(csvtext.LONG_ROWS, 2 * csvtext.chunk_rows(2)),
                                     (csvtext.LONG_ROWS - 1, csvtext.chunk_rows(2))])
def test_a_long_table_is_formatted_in_chunks_twice_as_long(monkeypatch, n, step):
    formatted = []
    float_field = csvtext._float_field

    def counted(x, field, scratch):
        formatted.append(len(x))
        float_field(x, field, scratch)

    monkeypatch.setattr(csvtext, "_float_field", counted)
    assert_same(range(n), np.random.default_rng(12).random(n))
    assert formatted == [step] * (n // step) + [n % step]


def test_text_columns_keep_any_character():
    assert_same(["", "a,b", "é€😀", "\x00", "tab\there", "x\x00"])


class NoItemReads(list):
    """A list whose items can be read only through a slice."""

    def __getitem__(self, at):
        assert isinstance(at, slice), "an item was read"
        return list(super().__getitem__(at))


def test_a_column_is_written_by_its_type_alone():
    # A text column is never looked into to decide, so text that reads as a
    # number stays text, and arrays of other dtypes are refused.
    assert_same(NoItemReads(["1.5", "nan", "2"]), np.array([1.5, math.nan, 2.0]), range(3))
    for column in (np.array([True, False]), np.arange(2, dtype=np.uint8), np.array(["a", "b"])):
        with pytest.raises(TypeError, match="floats or signed integers"):
            written(column)


def test_no_columns_or_rows_write_nothing():
    assert written() == b""
    assert written([], []) == b""

