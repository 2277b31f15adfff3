"""CSV writer: the bytes ``"{:.17g}".format`` and ``str`` give, on any column
of the types it takes."""

import math
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


def test_a_long_series_is_written_in_chunks_of_at_most_a_mebibyte():
    chunks = list(csvtext.rows(range(10**6), np.random.default_rng(6).random(10**6)))
    assert len(chunks) > 1
    assert max(map(len, chunks)) <= 2**20


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

