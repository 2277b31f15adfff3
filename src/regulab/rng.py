"""Project random number generator.

Every stochastic operation in the library draws from a single pinned
algorithm, SplitMix64, so that a seed fully determines every output on
every platform. No module touches ``random`` or ``numpy.random``.

SplitMix64 reference: Steele, Lea & Flood (2014), "Fast splittable
pseudorandom number generators". State advances by the golden-gamma
increment 0x9E3779B97F4A7C15; output is the finalizer mix of the state.

Because the state only ever moves by that constant, the k-th output after
state ``s`` is ``mix(s + k * GAMMA mod 2**64)``: the generator is
counter-based in the sense of Salmon et al. (SC 2011), "Parallel random
numbers: as easy as 1, 2, 3". ``u64s`` relies on this identity to compute a
block of draws as one numpy ``uint64`` expression, bit-identical to the
same number of ``next_u64`` calls.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Largest block ``floats`` and ``shuffle`` draw at once; bounds their
# temporaries to a few hundred kilobytes.
_BLOCK = 1 << 16

RNG_ALGORITHM = "splitmix64"


class SplitMix64:
    """Seeded 64-bit generator with uniform floats, bounded ints, shuffling.

    Instances are cheap and independent; ``split()`` derives a child
    generator whose stream is decorrelated from the parent's remaining
    stream, which is how per-stage sub-seeds are produced.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def u64s(self, n: int) -> np.ndarray:
        """The next ``n`` outputs of ``next_u64`` as one uint64 array."""
        if n < 0:
            raise ValueError(f"draw count must be >= 0, got {n}")
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def floats(self, n: int) -> np.ndarray:
        """The next ``n`` outputs of ``next_float`` as one float64 array."""
        if n < 0:
            raise ValueError(f"draw count must be >= 0, got {n}")
        out = np.empty(n, dtype=float)
        for start in range(0, n, _BLOCK):
            u = self.u64s(min(_BLOCK, n - start))
            u >>= np.uint64(11)
            np.multiply(u, 2.0 ** -53, out=out[start : start + u.size])
        return out

    def next_float(self) -> float:
        """Uniform double in [0, 1), 53 significant bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n). Rejection sampling, no modulo bias."""
        if n <= 0:
            raise ValueError(f"bound must be positive, got {n}")
        limit = (2 ** 64 // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_below(hi - lo + 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle with uniform index draws.

        Swaps item i with item ``next_below(i + 1)`` for i from the top
        down. The indices are drawn a block at a time; a draw that
        ``next_below`` would reject (u >= 2**64 - 2**64 mod m) ends the
        block, and the state is rewound so that ``next_below`` replays it.
        """
        i = len(items) - 1
        while i > 0:
            bounds = np.arange(i + 1, max(i + 1 - _BLOCK, 1), -1, dtype=np.uint64)
            start = self._state
            u = self.u64s(bounds.size)
            # 2**64 - 2**64 mod m - 1: the largest draw next_below accepts.
            last_ok = np.uint64(_MASK64) - (np.uint64(_MASK64) % bounds + np.uint64(1)) % bounds
            rejected = np.flatnonzero(u > last_ok)
            taken = int(rejected[0]) if rejected.size else bounds.size
            for j in (u[:taken] % bounds[:taken]).tolist():
                items[i], items[j] = items[j], items[i]
                i -= 1
            if rejected.size:
                self._state = (start + taken * _GAMMA) & _MASK64
                j = self.next_below(i + 1)
                items[i], items[j] = items[j], items[i]
                i -= 1

    def split(self) -> "SplitMix64":
        """Child generator seeded from this stream."""
        return SplitMix64(self.next_u64())
