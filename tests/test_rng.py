"""Project RNG: pinned algorithm, determinism, distribution sanity."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regulab import rng
from regulab.rng import _AHEAD, _BLOCK, SplitMix64, _below, _fisher_yates_order

MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15
GAMMA_INV = pow(GAMMA, -1, 2**64)


class ScalarMix:
    """SplitMix64 in pure Python, one draw at a time (Steele, Lea & Flood's
    finalizer): the independent reference for every draw of ``SplitMix64``,
    whose outputs all come from one numpy expression. The output of a state
    in ``forged`` is 2**64 - 1, as under ``Forge``."""

    def __init__(self, seed, forged=frozenset()):
        self._state = seed & MASK
        self.forged = forged

    def next_u64(self):
        self._state = z = (self._state + GAMMA) & MASK
        if z in self.forged:
            return MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def next_float(self):
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, n):
        limit = (2**64 // n) * n
        while (u := self.next_u64()) >= limit:
            pass
        return u % n

    def next_int(self, lo, hi):
        return lo + self.next_below(hi - lo + 1)

    def belows(self, bounds):
        """One next_below draw for each bound in turn, up to the first it rejects."""
        out = []
        for m in bounds:
            u = self.next_u64()
            if u >= (2**64 // m) * m:
                break
            out.append(u % m)
        return out

    def split(self):
        return ScalarMix(self.next_u64(), self.forged)


def draws(start, end):
    """How many draws take a generator from state ``start`` to ``end``."""
    return (end - start) * GAMMA_INV & MASK


def state_of(seed, k):
    """The state whose output is draw number ``k`` (from 0) of ``SplitMix64(seed)``."""
    return (seed + (k + 1) * GAMMA) & MASK


class Forge:
    """Makes the output of each state in ``states`` 2**64 - 1, which
    next_below rejects for any bound that is not a power of two. It wraps
    ``rng._outputs``, the one expression that scalar and block draws alike
    come from, so a forged draw is found by its state however the draws
    are blocked."""

    def __init__(self, monkeypatch, states=()):
        self.states = set(states)
        outputs = rng._outputs

        def forged(state, n):
            z = outputs(state, n)
            for at in self.states:
                if 0 <= (k := draws(state, at) - 1) < n:
                    z[k] = MASK
            return z

        monkeypatch.setattr(rng, "_outputs", forged)

    def fired(self, gen, seed):
        """Whether ``gen``, seeded with ``seed``, has drawn every forged output."""
        return all(draws(seed, at) <= draws(seed, gen._state) for at in self.states)


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


def test_next_below_bounds_up_to_two_to_the_64():
    # A wider bound would make every draw a rejection, so it is refused.
    g = SplitMix64(0)
    with pytest.raises(ValueError):
        g.next_below(2**64 + 1)
    assert g._state == 0
    assert g.next_below(2**64) == SEED0_STREAM[0]


@given(st.lists(st.integers(), min_size=0, max_size=50), st.integers(0, 2**64 - 1))
def test_shuffle_is_permutation(items, seed):
    shuffled = np.array(items, dtype=object)
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


def scalar_shuffle(items: list, rng) -> None:
    """Reference Fisher-Yates: one next_below draw per swap."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_below(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_u64s_matches_next_u64(seed):
    for n in (0, 1, 5, 1000):
        block, scalar = SplitMix64(seed), ScalarMix(seed)
        assert block.u64s(n).tolist() == [scalar.next_u64() for _ in range(n)]
        assert block._state == scalar._state
        assert block.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_floats_match_next_float(seed):
    for n in (0, 1, _BLOCK + 3):
        block, scalar = SplitMix64(seed), ScalarMix(seed)
        values = block.floats(n)
        assert values.dtype == np.float64
        assert values.tolist() == [scalar.next_float() for _ in range(n)]
        assert block._state == scalar._state


RUNS = st.sampled_from([0, 1, 2, _AHEAD - 1, _AHEAD, _AHEAD + 1, 2 * _AHEAD + 1])
BELOW_BOUNDS = st.sampled_from([1, 2, 3, 7, 2**32 + 1, 2**63 + 1, 2**64 - 1])
DRAW_STEPS = st.one_of(
    st.tuples(st.sampled_from(["next_u64", "next_float", "u64s", "floats"]), RUNS),
    st.tuples(st.just("next_below"), BELOW_BOUNDS | st.just(2**64)),
    # A run of bounds repeating a pattern; "forged" rejects the run's last draw.
    st.tuples(st.just("belows"), RUNS, st.lists(BELOW_BOUNDS, min_size=1, max_size=4)),
    st.tuples(st.just("forged"), RUNS.filter(bool), st.lists(st.integers(1, 1000), min_size=1,
                                                              max_size=4)),
    st.tuples(st.just("split")),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, MASK), st.lists(st.tuples(st.integers(0, 3), DRAW_STEPS), max_size=12))
def test_draws_match_scalar_reference_in_any_order(seed, steps):
    with pytest.MonkeyPatch.context() as monkeypatch:
        forge = Forge(monkeypatch)
        pairs = [(SplitMix64(seed), ScalarMix(seed, forge.states))]
        for pick, (kind, *args) in steps:
            gen, ref = pairs[pick % len(pairs)]
            if kind == "split":
                pairs.append((gen.split(), ref.split()))
            elif kind in ("next_u64", "next_float"):
                for _ in range(args[0]):
                    assert getattr(gen, kind)() == getattr(ref, kind)()
                    assert gen._state == ref._state
            elif kind == "next_below":
                assert gen.next_below(args[0]) == ref.next_below(args[0])
            elif kind in ("u64s", "floats"):
                scalar = ref.next_u64 if kind == "u64s" else ref.next_float
                assert getattr(gen, kind)(args[0]).tolist() == [scalar() for _ in range(args[0])]
            else:
                bounds = np.resize(np.array(args[1], dtype=np.uint64), args[0])
                if kind == "forged":  # 3 does not divide 2**64
                    bounds[-1] = 3
                    forge.states.add((gen._state + bounds.size * GAMMA) & MASK)
                got = gen.belows(bounds).tolist()
                assert got == ref.belows(bounds.tolist())
                if kind == "forged":
                    assert len(got) == bounds.size - 1
            assert gen._state == ref._state


def assert_shuffle_matches_scalar(seed, n):
    scalar = ScalarMix(seed)
    expected = [float(v) for v in range(n)]
    scalar_shuffle(expected, scalar)
    items, block = np.arange(n, dtype=float), SplitMix64(seed)
    block.shuffle(items)
    assert items.tolist() == expected
    assert block._state == scalar._state


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("seed", BLOCK_SEEDS[:3])
def test_shuffle_matches_scalar_reference(seed, n):
    assert_shuffle_matches_scalar(seed, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 2**64 - 1))
def test_shuffle_matches_scalar_reference_any_length(n, seed):
    assert_shuffle_matches_scalar(seed, n)


def test_shuffle_replays_rejected_draw_through_next_below(monkeypatch):
    n = 1000  # the forged draw bounds index 989, and 2**64 mod 990 != 0
    forge = Forge(monkeypatch, [state_of(42, 10)])
    forged, scalar = SplitMix64(42), ScalarMix(42, forge.states)
    a, b = np.arange(n), list(range(n))
    forged.shuffle(a)
    scalar_shuffle(b, scalar)
    assert forge.fired(forged, 42)
    assert draws(42, forged._state) == n  # n - 1 swaps and the rejected draw
    assert a.tolist() == b
    assert forged._state == scalar._state


def scalar_order(target: list) -> list:
    """Reference: the items after the swap loop of ``target``, as indices."""
    items = list(range(len(target)))
    for k in range(len(target) - 1, 0, -1):
        items[k], items[target[k]] = items[target[k]], items[k]
    return items


def built_targets(kind: str, n: int) -> np.ndarray:
    k = np.arange(n)
    if kind == "zeros":  # one group: every step swaps with slot 0
        return np.zeros(n, dtype=np.int32)
    if kind == "identity":  # no step moves anything
        return k.astype(np.int32)
    if kind == "k-1":  # parent(p) = p + 1: one chain of depth n - 1, the deepest jump
        return np.maximum(k - 1, 0).astype(np.int32)
    # Heavy repeats: each step picks one of the 8 lowest slots it may.
    return np.minimum(SplitMix64(n).u64s(n) % np.uint64(8), k).astype(np.int32)


@pytest.mark.parametrize("n", [2, 3, 2**16 + 1])
@pytest.mark.parametrize("kind", ["zeros", "identity", "k-1", "repeats"])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_order_matches_swap_loop_on_built_targets(kind, n, dtype):
    target = built_targets(kind, n).astype(dtype)
    want = scalar_order(target.tolist())
    perm = _fisher_yates_order(target)
    assert perm.dtype == dtype
    assert perm.tolist() == want


BOUNDS = sorted({2, 3, 2**63 + 1, 2**64 - 1} | {2**k + d for k in range(2, 65) for d in (-1, 1)}
                - {2**64 + 1})


def test_one_modulo_rule_matches_next_below_limit():
    draws, bounds = [], []
    for m in BOUNDS:
        limit = (2**64 // m) * m
        for u in {limit - 1, limit, 2**64 - 1} - {2**64}:
            draws.append(u)
            bounds.append(m)
    below, accepted = _below(np.array(draws, dtype=np.uint64), np.array(bounds, dtype=np.uint64))
    assert below.tolist() == [u % m for u, m in zip(draws, bounds)]
    assert accepted.tolist() == [u < (2**64 // m) * m for u, m in zip(draws, bounds)]
    assert not all(accepted) and any(accepted)


def test_one_modulo_rule_holds_for_a_broadcast_bound():
    for m in BOUNDS:
        limit = (2**64 // m) * m
        draws = sorted({0, m - 1, limit - 1, limit, 2**64 - 1} - {2**64})
        below, accepted = _below(np.array(draws, dtype=np.uint64),
                                 np.broadcast_to(np.uint64(m), len(draws)))
        assert below.tolist() == [u % m for u in draws]
        assert accepted.tolist() == [u < limit for u in draws]


def test_belows_of_one_broadcast_bound_take_few_bytes_a_value():
    # The acceptance limit was once negated n wide for a broadcast bound: 25 B
    # a value. The outputs, their remainders and the accepted flags are 17.
    n = 10**6
    tracemalloc.start()
    try:
        SplitMix64(0).belows(np.broadcast_to(np.uint64(1), n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18 * n


SORT_CHILD = """
import hashlib, sys
import numpy as np
from regulab.rng import SplitMix64
for seed in map(int, sys.argv[1:]):
    items = np.arange(200_001)
    SplitMix64(seed).shuffle(items)
    print(hashlib.sha256(items.astype("<i8").tobytes()).hexdigest())
"""


@pytest.mark.parametrize("features", [
    "X86_V4 AVX512_ICL AVX512_SPR",  # numpy's AVX2 sort
    "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",  # its scalar sort
], ids=["npy-no-avx512", "npy-no-avx2"])
def test_shuffle_order_does_not_depend_on_sort_dispatch(features):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": features,
           "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        last = (probe.stderr.strip().splitlines() or ["no output"])[-1]
        pytest.skip(f"numpy does not start without {features} on this host: {last}")
    seeds = (0, 0xDEADBEEF)
    proc = subprocess.run([sys.executable, "-c", SORT_CHILD, *map(str, seeds)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = []
    for seed in seeds:
        items = list(range(200_001))
        scalar_shuffle(items, ScalarMix(seed))
        want.append(hashlib.sha256(np.array(items, dtype="<i8").tobytes()).hexdigest())
    assert proc.stdout.split() == want


@pytest.mark.parametrize("draw", ["u64s", "floats"])
def test_block_draws_reject_negative_count(draw):
    g = SplitMix64(0)
    with pytest.raises(ValueError):
        getattr(g, draw)(-1)
    assert g._state == 0


def test_belows_rejects_a_zero_bound():
    g = SplitMix64(0)
    with pytest.raises(ValueError):
        g.belows(np.array([3, 0], dtype=np.uint64))
    assert g._state == 0
