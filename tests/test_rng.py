"""Project RNG: pinned algorithm, determinism, distribution sanity."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from regulab.rng import _BLOCK, SplitMix64


# Published splitmix64 outputs for seed 0 (Steele/Lea/Flood finalizer).
SEED0_STREAM = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_seed0_reference_stream():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(5)] == SEED0_STREAM


def test_determinism_same_seed():
    a = SplitMix64(123456789)
    b = SplitMix64(123456789)
    assert [a.next_u64() for _ in range(1000)] == [b.next_u64() for _ in range(1000)]


def test_floats_in_unit_interval():
    g = SplitMix64(42)
    vals = [g.next_float() for _ in range(10_000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(sum(vals) / len(vals) - 0.5) < 0.02


def test_next_int_inclusive_bounds():
    g = SplitMix64(3)
    draws = [g.next_int(4, 10) for _ in range(5000)]
    assert min(draws) == 4
    assert max(draws) == 10


def test_next_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).next_below(0)


@given(st.lists(st.integers(), min_size=0, max_size=50), st.integers(0, 2**64 - 1))
def test_shuffle_is_permutation(items, seed):
    shuffled = list(items)
    SplitMix64(seed).shuffle(shuffled)
    assert sorted(shuffled) == sorted(items)


def test_split_streams_differ_from_parent():
    parent = SplitMix64(99)
    child = parent.split()
    a = [child.next_u64() for _ in range(50)]
    b = [parent.next_u64() for _ in range(50)]
    assert a != b


def test_split_deterministic():
    a = SplitMix64(5).split()
    b = SplitMix64(5).split()
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


# Block draws against the scalar stream they must reproduce.

BLOCK_SEEDS = (0, 1, 0xDEADBEEF, 2**64 - 1)
BLOCK_SIZES = (0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 200_001)


def scalar_shuffle(items: list, rng: SplitMix64) -> None:
    """Reference Fisher-Yates: one next_below draw per swap."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_below(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_u64s_matches_next_u64(seed):
    for n in (0, 1, 5, 1000):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        assert block.u64s(n).tolist() == [scalar.next_u64() for _ in range(n)]
        assert block._state == scalar._state
        assert block.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_floats_match_next_float(seed):
    for n in (0, 1, _BLOCK + 3):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        values = block.floats(n)
        assert values.dtype == np.float64
        assert values.tolist() == [scalar.next_float() for _ in range(n)]
        assert block._state == scalar._state


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("seed", BLOCK_SEEDS[:3])
def test_shuffle_matches_scalar_reference(seed, n):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    a, b = list(range(n)), list(range(n))
    block.shuffle(a)
    scalar_shuffle(b, scalar)
    assert a == b
    assert block._state == scalar._state


class RejectingOnce(SplitMix64):
    """Forges the draw at ``REJECT_AT`` of the first block into one that
    next_below rejects for any bound that is not a power of two."""

    REJECT_AT = 10

    def __init__(self, seed):
        super().__init__(seed)
        self.blocks = 0
        self.replays = 0

    def u64s(self, n):
        u = super().u64s(n)
        if self.blocks == 0 and n > self.REJECT_AT:
            u[self.REJECT_AT] = np.uint64(2**64 - 1)
        self.blocks += 1
        return u

    def next_below(self, n):
        self.replays += 1
        return super().next_below(n)


def test_shuffle_replays_rejected_draw_through_next_below():
    n = 1000  # the forged draw bounds index 989, and 2**64 mod 990 != 0
    forged, scalar = RejectingOnce(42), SplitMix64(42)
    a, b = list(range(n)), list(range(n))
    forged.shuffle(a)
    scalar_shuffle(b, scalar)
    assert forged.replays == 1
    assert forged.blocks == 2
    assert a == b
    assert forged._state == scalar._state


@pytest.mark.parametrize("draw", ["u64s", "floats"])
def test_block_draws_reject_negative_count(draw):
    g = SplitMix64(0)
    with pytest.raises(ValueError):
        getattr(g, draw)(-1)
    assert g._state == 0
