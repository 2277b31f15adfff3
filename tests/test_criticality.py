"""Avalanche series: generator exactness, comparator maps vs brute-force
oracles, burst conservation, threshold and smoothing closed forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regulab import criticality
from regulab.criticality import (
    BurstSchedule,
    accumulate_release,
    gen_power_series,
    nfb_map,
    pfb_map,
    rank_order,
    smooth_model,
    threshold_model,
)
from regulab.rng import SplitMix64
from test_rng import Forge, ScalarMix, draws, scalar_shuffle, state_of


# --- generator ------------------------------------------------------------


def test_power_values_without_permutation():
    # n=4, e=1 values before shuffling are 1, 1/2, 1/3, 1/4.
    ps = gen_power_series(4, 1.0, seed=0)
    assert sorted(ps, reverse=True) == pytest.approx(
        [1.0, 0.5, 1.0 / 3.0, 0.25], abs=0.0
    )


def test_multiset_preserved_exactly():
    n = 10_000
    ps = gen_power_series(n, 1.0, seed=1234)
    expected = np.array([t ** -1.0 for t in range(1, n + 1)])
    assert np.array_equal(np.sort(ps)[::-1], expected)


@pytest.mark.parametrize("e", [0.5, 1.0, 2.0])
def test_multiset_invariance_across_exponents(e):
    n = 5000
    ps = gen_power_series(n, e, seed=9)
    expected = np.array([t ** -e for t in range(1, n + 1)])
    ordered = np.sort(ps)[::-1]
    assert np.max(np.abs(ordered - expected) / expected) <= 1e-12


@pytest.mark.parametrize("n,e,seed", [(1, 1.0, 0), (2, 0.5, 7), (3000, 0.1, 1),
                                      (70_001, 1.7, 12), (5000, 5.9, 3),
                                      # The smallest exponent makes every value round to 1.
                                      (5000, 5e-324, 4), (70_001, 0.001, 9),
                                      (5000, 5.999999, 1)])
def test_series_matches_python_pow_and_scalar_shuffle(n, e, seed):
    values = [float(t) ** -e for t in range(1, n + 1)]
    scalar_shuffle(values, SplitMix64(seed))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        samples = gen_power_series(n, e, seed)
    assert samples.tobytes() == np.array(values).tobytes()


def test_seeded_determinism():
    a = gen_power_series(1000, 1.0, seed=77)
    b = gen_power_series(1000, 1.0, seed=77)
    assert np.array_equal(a, b)
    c = gen_power_series(1000, 1.0, seed=78)
    assert not np.array_equal(a, c)


def test_exponent_validation():
    with pytest.raises(ValueError):
        gen_power_series(10, 0.0, seed=0)
    with pytest.raises(ValueError):
        gen_power_series(10, -1.0, seed=0)
    with pytest.raises(ValueError, match="black noise"):
        gen_power_series(10, 6.0, seed=0)


def test_exponent_behavior_mass_thins_as_e_grows():
    # Max amplitude is 1 for every exponent; mass above a fixed level
    # strictly shrinks as the exponent grows.
    n = 10_000
    fractions = []
    for e in (0.1, 1.0, 5.0):
        ps = gen_power_series(n, e, seed=5)
        assert np.max(ps) == 1.0
        fractions.append(np.mean(ps > 0.1))
    assert fractions[0] > fractions[1] > fractions[2]
    means = [np.mean(gen_power_series(n, e, seed=5)) for e in (0.1, 1.0, 5.0)]
    assert means[0] > means[1] > means[2]


# --- comparator maps -------------------------------------------------------


def _pfb_oracle(s):
    return [(s[i] + s[i + 1]) / 2.0 for i in range(len(s) - 1)]


def _nfb_oracle(s):
    return [abs(s[i] - s[i + 1]) for i in range(len(s) - 1)]


def test_pfb_nfb_tiny_examples():
    assert pfb_map(np.array([0.0, 1.0, 0.0])).tolist() == [0.5, 0.5]
    assert nfb_map(np.array([0.0, 1.0, 0.0])).tolist() == [1.0, 1.0]
    const = np.full(10, 3.25)
    assert np.array_equal(pfb_map(const), np.full(9, 3.25))
    assert np.array_equal(nfb_map(const), np.zeros(9))


def test_pfb_nfb_match_oracle_on_power_series():
    ps = gen_power_series(1000, 1.0, seed=21)
    assert np.max(np.abs(pfb_map(ps) - _pfb_oracle(list(ps)))) <= 1e-15
    assert np.max(np.abs(nfb_map(ps) - _nfb_oracle(list(ps)))) <= 1e-15


@settings(max_examples=50)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
def test_maps_match_oracles_property(values):
    s = np.array(values)
    assert pfb_map(s).tolist() == _pfb_oracle(values)
    assert nfb_map(s).tolist() == _nfb_oracle(values)
    assert np.all(nfb_map(s) >= 0)


def test_nfb_telescopes_on_monotone_series():
    ps = gen_power_series(1000, 1.0, seed=3)
    ordered = rank_order(ps, descending=True)
    total = math.fsum(nfb_map(ordered))
    assert total == abs(ordered[-1] - ordered[0])


def test_maps_reject_short_input():
    with pytest.raises(ValueError):
        pfb_map(np.array([1.0]))
    with pytest.raises(ValueError):
        nfb_map(np.array([1.0]))


# --- accumulate and release -------------------------------------------------


def test_release_every_tick_is_identity():
    rng = SplitMix64(11)
    s = np.array([rng.next_float() for _ in range(64)])
    bursts, times = accumulate_release(s, BurstSchedule(1, 1), seed=17)
    assert np.allclose(bursts, s, atol=0)
    assert times.tolist() == list(range(64))


def test_conservation_and_release_count_bounds():
    sched = BurstSchedule(4, 10)
    for seed in range(50):
        rng = SplitMix64(seed)
        s = np.array([rng.next_float() for _ in range(1001)])
        bursts, times = accumulate_release(s, sched, seed=seed + 1000)
        total_in = math.fsum(s)
        residue = total_in - math.fsum(bursts)
        assert abs((math.fsum(bursts) + residue) - total_in) <= 1e-12 * abs(total_in)
        # recompute residue independently: sum after the last release tick
        last = times[-1]
        direct_residue = math.fsum(s[last + 1 :])
        assert abs(residue - direct_residue) <= 1e-12
        assert 91 <= len(times) <= 251


def test_burst_events_match_burst_series():
    rng = SplitMix64(2)
    s = np.array([rng.next_float() for _ in range(500)])
    bursts, times = accumulate_release(s, BurstSchedule(3, 7), seed=5)
    assert np.array_equal(np.flatnonzero(bursts > 0), times)


def test_schedule_validation():
    with pytest.raises(ValueError):
        BurstSchedule(0, 4)
    with pytest.raises(ValueError):
        BurstSchedule(5, 4)
    BurstSchedule(1, 2**64)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        BurstSchedule(1, 2**64 + 1)


# The scalar loop accumulate_release replaced: one next_int per gap.


def reference_accumulate_release(s, sched, rng):
    bursts = np.zeros(s.size, dtype=float)
    times, magnitudes = [], []
    acc = 0.0
    next_release = rng.next_int(sched.interval_min, sched.interval_max)
    for i in range(s.size):
        acc += s[i]
        if i + 1 == next_release:
            bursts[i] = acc
            times.append(i)
            magnitudes.append(acc)
            acc = 0.0
            next_release += rng.next_int(sched.interval_min, sched.interval_max)
    return bursts, np.asarray(times, dtype=int), np.asarray(magnitudes, dtype=float)


def assert_release_matches_reference(s, sched, seed, monkeypatch, forge_at=()):
    """``accumulate_release`` against the scalar loop on ``ScalarMix``, with
    the draws numbered ``forge_at`` (from 0) forged into rejections."""
    forge = Forge(monkeypatch, [state_of(seed, k) for k in forge_at])
    made = []

    class Recorded(SplitMix64):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(criticality, "SplitMix64", Recorded)
    bursts, times = accumulate_release(s, sched, seed)
    ref_rng = ScalarMix(seed, forge.states)
    with np.errstate(over="ignore", invalid="ignore"):  # the loop's own inf and nan
        ref_bursts, ref_times, ref_magnitudes = reference_accumulate_release(s, sched, ref_rng)
    assert bursts.tobytes() == ref_bursts.tobytes()
    assert times.dtype == ref_times.dtype
    assert times.tolist() == ref_times.tolist()
    assert bursts[times].tobytes() == ref_magnitudes.tobytes()
    assert made[0]._state == ref_rng._state
    assert forge.fired(made[0], seed)


@pytest.mark.parametrize("n,lo,hi", [
    (1, 1, 1), (3, 10, 20), (50, 50, 50), (51, 50, 50), (5000, 1, 1), (70000, 1, 3),
    (70000, 1, 1), (2000, 4, 10), (300, 1, 2**64), (300, 2**70, 2**70 + 5),
    (3000, 1, 2**63 + 1),  # rejects about half of all draws
    (40, 3, 40), (400, 3, 8), (7, 2, 10), (700, 7, 7), (1000, 7, 7),
])
def test_release_matches_scalar_loop(n, lo, hi, monkeypatch):
    s = SplitMix64(n).floats(n)
    assert_release_matches_reference(s, BurstSchedule(lo, hi), 9, monkeypatch)


def test_release_matches_scalar_loop_on_signed_zeros(monkeypatch):
    s = np.array([-0.0, 0.0, -0.0, -0.0, 1.0, -1.0, -0.0] * 40)
    for lo, hi in ((1, 1), (1, 2), (2, 2), (1, 4)):
        assert_release_matches_reference(s, BurstSchedule(lo, hi), 3, monkeypatch)


# Burst values the padding of a burst's row must not change: each tiled over
# the series, so bursts start with and are made of each of them. No burst
# meets two NaNs of different bits, as inf + -inf (-nan on x86-64) and nan
# would: IEEE 754 leaves open which of the two a sum keeps, and numpy's
# accumulate and Python's float + keep different ones. The CSV writes both
# as nan.
SPECIAL_VALUES = {
    "leading -0.0": [-0.0, 1.5, -0.0, -0.0, 2.0, -0.0, -0.0, -0.0],
    "only -0.0": [-0.0],
    "subnormals": [5e-324, -5e-324, 1e-310, 5e-324, -1e-310, 2.2250738585072014e-308],
    "infinities": [math.inf, 1.0, -math.inf, -0.0, math.inf, -math.inf, 2.0],
    "nan": [math.nan, 1.0, -0.0, math.inf, math.nan, -2.0],
    "overflow": [1.7e308, 1.7e308, -1.7e308, -0.0, -1.7e308, -1.7e308, 1.0, 1e308],
}


@pytest.mark.parametrize("values", SPECIAL_VALUES.values(), ids=SPECIAL_VALUES)
@pytest.mark.parametrize("lo,hi", [(1, 1), (1, 3), (2, 5), (4, 4), (3, 9)])
def test_release_matches_scalar_loop_on_special_values(values, lo, hi, monkeypatch):
    s = np.resize(np.array(values), 96)
    for seed in range(4):
        assert_release_matches_reference(s, BurstSchedule(lo, hi), seed, monkeypatch)


@pytest.mark.parametrize("values", SPECIAL_VALUES.values(), ids=SPECIAL_VALUES)
def test_release_matches_scalar_loop_with_no_release_or_one(values, monkeypatch):
    s = np.resize(np.array(values), 9)
    for lo, hi, count in ((10, 20, 0), (9, 9, 1)):
        _, times = accumulate_release(s, BurstSchedule(lo, hi), 1)
        assert len(times) == count
        assert_release_matches_reference(s, BurstSchedule(lo, hi), 1, monkeypatch)


def seed_with_longest_burst(where, n, sched):
    """The first seed whose bursts over ``n`` values are at least three, with
    one longest, ``where`` is "first", "last" or "middle" of them."""
    for seed in range(1000):
        lengths = criticality._release_gaps(n, sched, SplitMix64(seed))
        longest = np.flatnonzero(lengths == lengths.max()) if lengths.size >= 3 else []
        if len(longest) == 1:
            k, last = longest[0], lengths.size - 1
            if {"first": k == 0, "last": k == last, "middle": 0 < k < last}[where]:
                return seed
    raise AssertionError(f"no seed below 1000 has its longest burst {where}")


@pytest.mark.parametrize("where", ["first", "last", "middle"])
@pytest.mark.parametrize("values", SPECIAL_VALUES.values(), ids=SPECIAL_VALUES)
def test_release_matches_scalar_loop_wherever_the_longest_burst_is(where, values, monkeypatch):
    # The longest burst's row is the only one the table does not pad.
    sched = BurstSchedule(1, 6)
    seed = seed_with_longest_burst(where, 24, sched)
    assert_release_matches_reference(np.resize(np.array(values), 24), sched, seed, monkeypatch)


def release_draw(site, n, sched, seed):
    """The number of the draw at ``site`` of ``_release_gaps(n, sched,
    SplitMix64(seed))``: in its last run of ``belows`` or in the scalar tail."""
    runs, belows = [], SplitMix64.belows

    def recorded(gen, bounds):
        runs.append((draws(seed, gen._state), bounds.size))
        return belows(gen, bounds)

    rng = SplitMix64(seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(SplitMix64, "belows", recorded)
        criticality._release_gaps(n, sched, rng)
    assert len(runs) > 1
    first, size = runs[-1]
    return {"last-run-first": first, "last-run-last": first + size - 1,
            "tail-first": first + size, "tail-last": draws(seed, rng._state) - 1}[site]


@pytest.mark.parametrize("forge_at", [0, 1, 7, "last-run-first", "last-run-last", "tail-first",
                                      "tail-last"])
def test_release_drops_a_rejected_gap_draw(forge_at, monkeypatch):
    # 7 does not divide 2**64. Seed 2's last run of belows is draws 65-67, its tail 68-69.
    s, sched = SplitMix64(1).floats(400), BurstSchedule(3, 9)
    if isinstance(forge_at, str):
        forge_at = release_draw(forge_at, s.size, sched, 2)
    assert_release_matches_reference(s, sched, 2, monkeypatch, [forge_at])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400), st.integers(1, 30), st.integers(0, 30), st.integers(0, 2**64 - 1))
def test_release_matches_scalar_loop_property(n, lo, width, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        s = SplitMix64(seed).floats(n) - 0.5
        assert_release_matches_reference(s, BurstSchedule(lo, lo + width), seed, monkeypatch)


# --- rank order -------------------------------------------------------------


def test_rank_order_basics():
    assert rank_order(np.array([3.0, 1.0, 2.0])).tolist() == [3.0, 2.0, 1.0]
    assert rank_order(np.array([3.0, 1.0, 2.0]), descending=False).tolist() == [1.0, 2.0, 3.0]


def test_rank_order_of_generator_is_exact_power_curve():
    n = 2000
    ps = gen_power_series(n, 0.5, seed=8)
    expected = np.array([t ** -0.5 for t in range(1, n + 1)])
    assert np.array_equal(rank_order(ps, descending=True), expected)


def test_interval_rank_order_monotone():
    rng = SplitMix64(4)
    s = np.array([rng.next_float() for _ in range(1001)])
    _, times = accumulate_release(s, BurstSchedule(4, 10), seed=6)
    ranked = rank_order(np.diff(times).astype(float), descending=True)
    assert np.all(np.diff(ranked) <= 0)


# --- threshold model ----------------------------------------------------------


def test_threshold_closed_form_small():
    curve, _ = threshold_model(3, 1.0)
    assert curve.tolist() == [1.0 / 3.0, 0.5, 1.0]


def test_threshold_default_parameters_curve():
    n = 10_000
    curve, crossing = threshold_model(n, 0.1)
    expected = np.array([(n - i) ** -0.1 for i in range(n)])
    assert np.max(np.abs(curve - expected)) <= 1e-12
    assert np.all(np.diff(curve) >= 0)
    # crossing sits where the curve first meets its own mean
    level = float(np.mean(curve))
    assert curve[crossing] >= level
    assert crossing == 0 or curve[crossing - 1] < level


@pytest.mark.parametrize("e_model", [0.0, -0.1, math.nan, math.inf])
def test_threshold_rejects_nonpositive_or_nonfinite_exponent(e_model):
    with pytest.raises(ValueError, match="model exponent"):
        threshold_model(10, e_model)


# --- smoothing ---------------------------------------------------------------


def test_smooth_extremes():
    s = np.arange(1.0, 13.0)
    assert smooth_model(s, 12).tolist() == [s.mean()]
    assert np.array_equal(smooth_model(s, 1), s)


def test_smooth_hundredfold_preserves_grand_mean():
    ps = gen_power_series(10_000, 1.0, seed=12)
    out = smooth_model(ps, 100)
    assert out.shape == (100,)
    assert abs(out.mean() - ps.mean()) <= 1e-12


def test_smooth_rejects_non_divisor():
    with pytest.raises(ValueError):
        smooth_model(np.arange(10.0), 3)


# --- events -------------------------------------------------------------------


@pytest.mark.parametrize("lo, hi", [(1, 1), (3, 7), (10, 20)])
def test_events_invariants(lo, hi):
    rng = SplitMix64(8)
    s = np.array([rng.next_float() for _ in range(1001)])
    bursts, times = accumulate_release(s, BurstSchedule(lo, hi), seed=9)
    assert times.dtype == np.int64
    # the first release ends the first gap; each later one a gap after the last
    assert lo - 1 <= times[0] <= hi - 1
    assert np.all((lo <= np.diff(times)) & (np.diff(times) <= hi))
    assert times[-1] < s.size <= times[-1] + hi
    quiet = np.ones(s.size, dtype=bool)
    quiet[times] = False
    assert np.all(bursts[quiet] == 0.0)
    assert np.all(bursts[times] > 0.0)
