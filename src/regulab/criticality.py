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
from itertools import pairwise

import numpy as np

from .rng import _BLOCK, SplitMix64

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


def _release_ticks(n: int, sched: BurstSchedule, rng: SplitMix64) -> np.ndarray:
    """Running sums of gaps ``next_int(interval_min, interval_max)`` up to
    ``n``; ``rng`` ends right after the first gap past ``n``. The bound never
    changes, so a draw that ``next_below`` would reject is simply dropped."""
    lo, m = sched.interval_min, sched.interval_max - sched.interval_min + 1
    last_ok = np.uint64((2**64 // m) * m - 1)
    chunks, tick = [], 0
    while True:
        u = rng.u64s(min(_BLOCK, (n - tick) // lo + 1))
        kept = np.flatnonzero(u <= last_ok)
        offsets = u[kept] if m == 2**64 else u[kept] % np.uint64(m)
        # Any gap past n ends the series, so clipping both terms to n + 1
        # keeps the sums in int64 without changing where they pass n.
        gaps = np.minimum(offsets, n + 1).astype(np.int64) + min(lo, n + 1)
        ticks = tick + np.cumsum(gaps)
        inside = int(np.searchsorted(ticks, n, side="right"))
        chunks.append(ticks[:inside])
        if inside < ticks.size:
            rng.rewind(u.size - 1 - int(kept[inside]))
            return np.concatenate(chunks)
        if ticks.size:
            tick = int(ticks[-1])


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
    ends = _release_ticks(s.size, sched, SplitMix64(seed))
    # Each burst is summed from 0.0 in index order, as the accumulator does
    # (not with sum(), which compensates its rounding from Python 3.12 on).
    values = s.tolist()
    magnitudes = []
    for start, end in pairwise([0, *ends.tolist()]):
        acc = 0.0
        for v in values[start:end]:
            acc += v
        magnitudes.append(acc)
    times = ends - 1
    bursts = np.zeros(s.size, dtype=float)
    bursts[times] = magnitudes
    events = AvalancheEvents(
        times=times,
        magnitudes=np.asarray(magnitudes, dtype=float),
        intervals=np.diff(times),
    )
    return bursts, events


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
    t = np.arange(n, 0, -1, dtype=float)
    curve = t ** -e_model
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
