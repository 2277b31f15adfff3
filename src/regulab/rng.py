"""Project random number generator.

Every stochastic operation in the library draws from a single pinned
algorithm, SplitMix64, so that a seed fully determines every draw on every
platform. No module touches ``random`` or ``numpy.random``. (What else
can change the last digits of an output is listed in the README.)

SplitMix64 reference: Steele, Lea & Flood (2014), "Fast splittable
pseudorandom number generators". State advances by the golden-gamma
increment 0x9E3779B97F4A7C15; output is the finalizer mix of the state.

Because the state only ever moves by that constant, the k-th output after
state ``s`` is ``mix(s + k * GAMMA mod 2**64)``: the generator is
counter-based in the sense of Salmon et al. (SC 2011), "Parallel random
numbers: as easy as 1, 2, 3". Every draw relies on this identity: one numpy
``uint64`` expression, ``_outputs``, computes a block of outputs from the
state. ``u64s`` and ``belows`` take such a block directly, and the scalar
draws serve their outputs one at a time from a small look-ahead block.

``shuffle`` builds its order from one sort and pointer jumping, after Shun,
Gu, Blelloch, Fineman & Gibbons (SODA 2015), "Sequential random permutation,
list contraction and tree contraction are highly parallel".
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Largest block that ``floats`` and ``shuffle`` draw at once; bounds their
# temporaries to a few hundred kilobytes.
_BLOCK = 1 << 16
# Outputs that the scalar draws compute at once. Small, because a ``split()``
# child often draws only once.
_AHEAD = 256

RNG_ALGORITHM = "splitmix64"


def _outputs(state: int, n: int) -> np.ndarray:
    """The ``n`` outputs that follow ``state``, as one uint64 array: the
    finalizer mix of the states ``state + k * GAMMA`` for k = 1..n."""
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(state)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


class SplitMix64:
    """Seeded 64-bit generator with uniform floats, bounded ints, shuffling.

    Instances are cheap and independent; ``split()`` derives a child
    generator whose stream is decorrelated from the parent's remaining
    stream, which is how per-stage sub-seeds are produced.
    """

    __slots__ = ("_end", "_ahead")

    def __init__(self, seed: int) -> None:
        self._end = seed & _MASK64  # the state after the last output computed
        self._ahead: list[int] = []  # outputs computed and not drawn yet, the next one last

    @property
    def _state(self) -> int:
        """The state after the last output drawn."""
        return (self._end - len(self._ahead) * _GAMMA) & _MASK64

    def next_u64(self) -> int:
        ahead = self._ahead
        if not ahead:
            ahead = self._ahead = _outputs(self._end, _AHEAD)[::-1].tolist()
            self._end = (self._end + _AHEAD * _GAMMA) & _MASK64
        return ahead.pop()

    def u64s(self, n: int) -> np.ndarray:
        """The next ``n`` outputs of ``next_u64`` as one uint64 array."""
        if n < 0:
            raise ValueError(f"draw count must be >= 0, got {n}")
        state = self._state
        self._end, self._ahead = (state + n * _GAMMA) & _MASK64, []
        return _outputs(state, n)

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
        """Uniform integer in [0, n), 0 < n <= 2**64. Rejection sampling,
        no modulo bias."""
        if not 0 < n <= 2**64:
            raise ValueError(f"bound must be in [1, 2**64], got {n}")
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

    def belows(self, bounds: np.ndarray) -> np.ndarray:
        """``next_below(m)`` for each bound m of a uint64 array in turn, up to
        the first draw that ``next_below`` rejects: the values drawn before
        it. The rejected draw is consumed, so a call that asks again for
        its bound goes on as ``next_below`` would."""
        if not bounds.all():
            raise ValueError("bounds must be in [1, 2**64)")
        state = self._state
        below, accepted = _below(_outputs(state, bounds.size), bounds)
        taken = bounds.size if accepted.all() else int(accepted.argmin())
        self._end, self._ahead = (state + min(taken + 1, bounds.size) * _GAMMA) & _MASK64, []
        return below[:taken]

    def shuffle(self, items: np.ndarray) -> None:
        """In-place Fisher-Yates shuffle of a 1-D ndarray.

        Step k, for k from len - 1 down to 1, swaps items k and the target
        ``H[k] = next_below(k + 1)``. The targets are drawn by ``belows`` a
        block at a time, and the order is then built with no loop over the
        items by ``_fisher_yates_order``.
        """
        if len(items) > 1:
            items[...] = items[_fisher_yates_order(self._swap_targets(len(items)))]

    def _swap_targets(self, n: int) -> np.ndarray:
        """``H[k] = next_below(k + 1)`` drawn for k = n - 1 down to 1; H[0] = 0."""
        target = np.zeros(n, dtype=np.int32 if n < 2**31 else np.int64)
        i = n - 1
        while i > 0:
            below = self.belows(np.arange(i + 1, max(i + 1 - _BLOCK, 1), -1, dtype=np.uint64))
            target[i + 1 - below.size : i + 1] = below[::-1]
            i -= below.size
        return target

    def split(self) -> "SplitMix64":
        """Child generator seeded from this stream."""
        return SplitMix64(self.next_u64())


def _below(u: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``u % m``, and whether ``next_below(m)`` takes each draw: iff u - u % m
    <= 2**64 - m. ``u`` is overwritten."""
    below = u % m
    u -= below
    return below, u <= -m  # -m wraps to 2**64 - m


def _fisher_yates_order(target: np.ndarray) -> np.ndarray:
    """The order ``perm`` with ``items[perm]`` equal to the sequential
    shuffle whose step k swaps items k and H[k] = ``target[k]``. Step k
    moves into slot k what slot H[k] holds then, and slot p is written only
    by the steps k > p with H[k] = p and by step p. So slot p holds item
    ``root(p)`` when step p runs, where the parent of p is the smallest
    step k > p with H[k] = p; step k takes the root of the next larger step
    with target H[k], and the largest takes item H[k], which never moved.
    One sort of the unique keys H[k] * n + k groups the steps by target and
    gives back each one's target (over ``target``) and step. Pointer jumping
    on the entries still moving takes O(log n) rounds w.h.p. (Shun et al.)."""
    n, index = target.size, target.dtype
    key = np.multiply(target, n, dtype=np.int64)
    key += np.arange(n, dtype=index)
    key.sort()  # unique keys: every sort kernel gives this order
    grouped = np.floor_divide(key, n, out=target, casting="unsafe")
    order = np.remainder(key, n, out=np.empty(n, dtype=index), casting="unsafe")
    del key
    ends = np.r_[grouped[1:] != grouped[:-1], True]
    # Group 0 starts with step 0, whose root is unread. Narrow starts: fewer heap holes.
    starts = np.flatnonzero(ends[:-1]).astype(index)
    heads, first = grouped[1:][starts], order[1:][starts]
    del starts
    root = np.arange(n, dtype=index)
    root[heads] = first
    live = heads[heads != first]  # H[p] = p: p starts group p, root(p) is unread
    del heads, first
    while live.size:  # a root that is a fixed point never moves again
        parent = root[live]
        jumped = root[parent]
        root[live] = jumped
        live = live[jumped != parent]
    value = root[order]  # in sorted order: the next step's root, at a group's end H[k]
    value[:-1] = value[1:]
    np.copyto(value, grouped, where=ends)
    root[order] = value  # root is read no more
    return root
