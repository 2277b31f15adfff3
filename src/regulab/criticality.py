"""Avalanche-style time series: permuted power laws and burst statistics.

The generator produces the deterministic multiset {t^-e : t = 1..n} and
scatters it over time with a seeded Fisher-Yates permutation, giving a
scale-free series whose rank-order plot is the exact power curve. On top
of that sit the comparator maps (adjacent mean and absolute adjacent
difference), an accumulate-and-release burst process, a closed-form
threshold detection curve, and block-mean smoothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64

# Exponents at or above this produce a series so sparse it resembles
# black noise; the generator refuses them.
MAX_EXPONENT = 6.0


@dataclass(frozen=True)
class AvalancheEvents:
    """Detected burst events: times strictly increasing, one interval per
    consecutive pair."""

    times: np.ndarray
    magnitudes: np.ndarray
    intervals: np.ndarray

    def __post_init__(self) -> None:
        if len(self.times) != len(self.magnitudes):
            raise ValueError("times and magnitudes must align")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("event times must be strictly increasing")
        if len(self.intervals) != max(len(self.times) - 1, 0):
            raise ValueError("need exactly one interval per consecutive pair")


@dataclass(frozen=True)
class BurstSchedule:
    """Inclusive range of gaps (in ticks) between consecutive releases."""

    interval_min: int
    interval_max: int

    def __post_init__(self) -> None:
        if not (1 <= self.interval_min <= self.interval_max):
            raise ValueError(
                f"need 1 <= interval_min <= interval_max, got "
                f"[{self.interval_min}, {self.interval_max}]"
            )
        if self.interval_max - self.interval_min >= 2**64:
            raise ValueError(
                f"gap range [{self.interval_min}, {self.interval_max}] holds more "
                f"than 2**64 values"
            )


def gen_power_series(n: int, e: float, seed: int) -> np.ndarray:
    """Power-law values t^-e for t = 1..n, shuffled by the seeded project RNG,
    as a read-only float64 array.

    Rejects e outside (0, MAX_EXPONENT), NaN included (e >= MAX_EXPONENT
    yields a nearly empty, black-noise-like series).
    """
    if n < 1:
        raise ValueError(f"series length must be >= 1, got {n}")
    if e >= MAX_EXPONENT:
        raise ValueError(
            f"exponent {e} rejected: values >= {MAX_EXPONENT} give an extremely "
            f"sparse series resembling black noise"
        )
    if not (0 < e < MAX_EXPONENT):
        raise ValueError(f"exponent must be in (0, {MAX_EXPONENT}), got {e}")
    # float_power's float64 loop calls libm pow on each element, as math.pow
    # and float ** do; numpy's power differs in the last ulp on AVX-512. The
    # values still depend on which pow variant (FMA or not) libm picks.
    samples = np.arange(1, n + 1, dtype=np.float64)
    np.float_power(samples, -e, out=samples)
    SplitMix64(seed).shuffle(samples)
    samples.flags.writeable = False
    return samples


def pfb_map(s: np.ndarray) -> np.ndarray:
    """Adjacent-mean comparator map: out[i] = (s[i] + s[i+1]) / 2."""
    s = np.asarray(s, dtype=float)
    if s.size < 2:
        raise ValueError("adjacent mean needs at least 2 samples")
    return (s[:-1] + s[1:]) / 2.0


def nfb_map(s: np.ndarray) -> np.ndarray:
    """Absolute adjacent-difference comparator map: out[i] = |s[i] - s[i+1]|."""
    s = np.asarray(s, dtype=float)
    if s.size < 2:
        raise ValueError("adjacent difference needs at least 2 samples")
    return np.abs(s[:-1] - s[1:])


def _release_gaps(n: int, sched: BurstSchedule, rng: SplitMix64) -> np.ndarray:
    """Gaps ``next_int(interval_min, interval_max)`` while their running sum
    stays at most ``n``; ``rng`` ends right after the first gap past it. A
    round of ``(n - tick) // interval_max`` gaps cannot pass ``n``, so each
    round draws them as one run of ``belows``; scalar draws finish the last few."""
    lo, hi = sched.interval_min, sched.interval_max
    chunks, tick = [], 0
    while k := (n - tick) // hi:  # only while hi <= n: each bound hi - lo + 1 fits in uint64
        gaps = rng.belows(np.broadcast_to(np.uint64(hi - lo + 1), k)).view(np.int64)
        gaps += lo
        chunks.append(gaps)
        tick += int(gaps.sum())
    tail = []
    while (gap := rng.next_int(lo, hi)) <= n - tick:
        tick += gap
        tail.append(gap)
    return np.concatenate([*chunks, np.array(tail, dtype=np.int64)])


def accumulate_release(
    input_series: np.ndarray, sched: BurstSchedule, seed: int
) -> tuple[np.ndarray, AvalancheEvents]:
    """Accumulate the input and release it in bursts at random gaps.

    A running accumulator sums the input sample by sample. At ticks
    separated by gaps drawn uniformly from the schedule's inclusive range,
    the accumulator is emitted as a burst magnitude and reset; every other
    tick emits 0. The burst series has the same length as the input, so
    the sum of all bursts plus whatever is left in the accumulator equals
    the input sum exactly.
    """
    s = np.asarray(input_series, dtype=float)
    if s.size == 0:
        raise ValueError("input series must be non-empty")
    lengths = _release_gaps(s.size, sched, SplitMix64(seed))
    # Burst k is row k, padded with 0.0: accumulate adds along a row in index
    # order, as the accumulator does (np.sum would pair the terms). The
    # accumulator never holds -0.0, so the padding changes none of its sums,
    # and + 0.0 turns the -0.0 of an all -0.0 row into the accumulator's 0.0.
    rows = np.zeros((lengths.size, lengths.max(initial=1)))  # a column even with no release
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = s[:lengths.sum()]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as the loop gives
        magnitudes = np.add.accumulate(rows, axis=1, out=rows)[:, -1] + 0.0
    del rows  # before the burst series is filled, so both are not in the peak
    times = np.cumsum(lengths)
    times -= 1
    bursts = np.zeros(s.size, dtype=float)
    bursts[times] = magnitudes
    return bursts, AvalancheEvents(times=times, magnitudes=magnitudes, intervals=lengths[1:])


def rank_order(s: np.ndarray, descending: bool = True) -> np.ndarray:
    """Stable sort of the series by magnitude."""
    s = np.asarray(s, dtype=float)
    if s.size == 0:
        raise ValueError("cannot rank an empty series")
    ordered = np.sort(s, kind="stable")
    return ordered[::-1].copy() if descending else ordered


def threshold_model(n: int, e_model: float) -> tuple[np.ndarray, int]:
    """Ascending power curve used as a burst-detection threshold.

    curve[i] = (n - i)^-e_model for i = 0..n-1, the ascending sort of
    t^-e_model in closed form. The returned crossing index is the smallest
    i with curve[i] >= the curve mean, a deliberately conservative detection
    point (bursts tend to occur below it).
    """
    if n < 1:
        raise ValueError(f"curve length must be >= 1, got {n}")
    if not (0 < e_model < math.inf):  # also rejects nan
        raise ValueError(f"model exponent must be positive and finite, got {e_model}")
    curve = np.arange(n, 0, -1, dtype=float)
    curve **= -e_model
    return curve, int(np.argmax(curve >= curve.mean()))


def smooth_model(s: np.ndarray, factor: int) -> np.ndarray:
    """Block means: consecutive blocks of ``factor`` samples reduce to their
    mean, preserving the grand mean. ``factor`` must divide the length."""
    s = np.asarray(s, dtype=float)
    if factor < 1:
        raise ValueError(f"smoothing factor must be >= 1, got {factor}")
    if s.size % factor != 0:
        raise ValueError(f"factor {factor} does not divide series length {s.size}")
    return s.reshape(-1, factor).mean(axis=1)
