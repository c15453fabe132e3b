"""Deterministic 64-bit pseudo-randomness for tests, checks and seed expansion.

The mixing function is the splitmix64 finalizer; a stream built on it walks
a Weyl sequence with the golden-ratio increment.  Everything here is fixed
and platform independent, so any value derived from a documented seed can be
frozen into a regression test.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mix64", "SplitMix64", "trial_rng", "trial_draws"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TRIAL_STRIDE = 0xD1342543DE82EF95  # distinct odd stride keeps per-trial streams apart


def mix64(x: int) -> int:
    """splitmix64 finalizer: bijective 64-bit avalanche mix.

    Takes an int or a uint64 array, which it leaves as it is; the array
    arithmetic wraps mod 2**64, so both give the same values.
    """
    x = x & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class SplitMix64:
    """Tiny deterministic generator: state += golden, output = mix64(state)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def below(self, bound: int) -> int:
        """Uniform-ish draw in [0, bound); modulo bias is irrelevant at test sizes."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next64() % bound


def trial_rng(seed: int, index: int) -> SplitMix64:
    """Independent stream for trial ``index`` of a run seeded with ``seed``.

    Trials can be partitioned across workers in any way without changing any
    trial's randomness: stream i depends only on (seed, i).
    """
    return SplitMix64((mix64(seed) + index * _TRIAL_STRIDE) & _MASK64)


def trial_draws(seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """The first ``n`` draws of ``trial_rng(seed, i)`` for every i in [start, stop).

    Returns one uint64 array of shape (n, stop - start); entry [j, t] is
    draw j of trial ``start + t``.  All trials are mixed at once, and each
    value equals the one the trial's own ``SplitMix64`` would give.
    """
    base = np.arange(start, stop, dtype=np.uint64) * _TRIAL_STRIDE + mix64(seed)
    return mix64(base + np.arange(1, n + 1, dtype=np.uint64)[:, None] * _GOLDEN)
