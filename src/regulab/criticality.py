"""Avalanche-style time series: permuted power laws and burst statistics.

The generator produces the deterministic multiset {t^-e : t = 1..n} and
scatters it over time with a seeded Fisher-Yates permutation, giving a
scale-free series whose rank-order plot is the exact power curve. On top
of that sit the comparator maps (adjacent mean and absolute adjacent
difference), an accumulate-and-release burst process, a closed-form
threshold detection curve, block-mean smoothing, and a configurable
threshold detector for burst events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64

# Exponents at or above this produce a series so sparse it resembles
# black noise; the generator refuses them.
MAX_EXPONENT = 6.0


@dataclass(frozen=True)
class PowerSeries:
    """Permuted power-law series. ``samples`` is a multiset equal to
    {t^-exponent : t = 1..n}, in seeded shuffle order."""

    samples: np.ndarray
    exponent: float
    n: int
    seed: int


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


def gen_power_series(n: int, e: float, seed: int) -> PowerSeries:
    """Power-law values t^-e for t = 1..n, shuffled by the seeded project RNG.

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
    # Python float pow, not numpy's power, which differs in the last ulp on AVX-512.
    values = [float(t) ** -e for t in range(1, n + 1)]
    SplitMix64(seed).shuffle(values)
    samples = np.asarray(values, dtype=float)
    samples.flags.writeable = False
    return PowerSeries(samples=samples, exponent=e, n=n, seed=seed)


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
    rng = SplitMix64(seed)
    bursts = np.zeros(s.size, dtype=float)
    times: list[int] = []
    magnitudes: list[float] = []
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
    events = AvalancheEvents(
        times=np.asarray(times, dtype=int),
        magnitudes=np.asarray(magnitudes, dtype=float),
        intervals=np.diff(np.asarray(times, dtype=int)),
    )
    return bursts, events


def rank_order(s: np.ndarray, descending: bool = True) -> np.ndarray:
    """Stable sort of the series by magnitude."""
    s = np.asarray(s, dtype=float)
    if s.size == 0:
        raise ValueError("cannot rank an empty series")
    ordered = np.sort(s, kind="stable")
    return ordered[::-1].copy() if descending else ordered


def threshold_model(
    n: int, e_model: float, level: float | None = None
) -> tuple[np.ndarray, int]:
    """Ascending power curve used as a burst-detection threshold.

    curve[i] = (n - i)^-e_model for i = 0..n-1, the ascending sort of
    t^-e_model in closed form. The returned crossing index is the smallest
    i with curve[i] >= level; ``level`` defaults to the curve mean, a
    deliberately conservative detection point (bursts tend to occur below
    it).
    """
    if n < 1:
        raise ValueError(f"curve length must be >= 1, got {n}")
    if e_model <= 0:
        raise ValueError(f"model exponent must be positive, got {e_model}")
    t = np.arange(n, 0, -1, dtype=float)
    curve = t ** -e_model
    if level is None:
        level = float(np.mean(curve))
    crossing = int(np.argmax(curve >= level))
    return curve, crossing


def smooth_model(s: np.ndarray, factor: int) -> np.ndarray:
    """Block means: consecutive blocks of ``factor`` samples reduce to their
    mean, preserving the grand mean. ``factor`` must divide the length."""
    s = np.asarray(s, dtype=float)
    if factor < 1:
        raise ValueError(f"smoothing factor must be >= 1, got {factor}")
    if s.size % factor != 0:
        raise ValueError(f"factor {factor} does not divide series length {s.size}")
    return s.reshape(-1, factor).mean(axis=1)


def detect_avalanches(s: np.ndarray, level: float) -> AvalancheEvents:
    """Events at every tick whose sample exceeds ``level``.

    The detection rule is an explicit parameter on purpose: burst counts
    depend entirely on where the level is set.
    """
    s = np.asarray(s, dtype=float)
    if s.size == 0:
        raise ValueError("cannot detect events in an empty series")
    times = np.flatnonzero(s > level)
    return AvalancheEvents(
        times=times,
        magnitudes=s[times],
        intervals=np.diff(times),
    )


def series_mass_above(s: np.ndarray, level: float) -> float:
    """Fraction of samples strictly above ``level``."""
    s = np.asarray(s, dtype=float)
    if s.size == 0:
        raise ValueError("empty series")
    return float(np.count_nonzero(s > level)) / s.size
