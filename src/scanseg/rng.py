"""Deterministic 64-bit generator used everywhere randomness is needed.

The algorithm is SplitMix64 (Steele, Lea, Flood 2014): a counter is advanced
by the golden-gamma constant and the output is a three-round xor-multiply
mix of the counter.  It is fixed here, rather than delegating to the
platform generator, so that golden files and loss curves reproduce
bit-for-bit across machines and language runtimes:

    state  += 0x9E3779B97F4A7C15                    (mod 2^64)
    z       = state
    z       = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9  (mod 2^64)
    z       = (z ^ (z >> 27)) * 0x94D049BB133111EB  (mod 2^64)
    output  = z ^ (z >> 31)

Doubles are drawn as (output >> 11) * 2^-53, uniform in [0, 1).  Gaussian
samples use the Box-Muller transform on two uniform draws.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """One SplitMix64 output mix of a 64-bit value."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def combine(seed: int, index: int) -> int:
    """Derive an independent stream seed from (seed, index).

    Feeds the index through the mix before xoring so that consecutive
    indices land in unrelated parts of the state space.
    """
    return mix64(mix64(seed & _MASK) ^ mix64((index * _GAMMA + 1) & _MASK))


class SplitMix64:
    """Sequential SplitMix64 stream."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return mix64(self.state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * (1.0 / (1 << 53))
        return lo + (hi - lo) * u

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    # Vectorized draws: consume exactly n counter steps of the stream so the
    # scalar and array paths stay interleavable and reproducible.

    def _next_block(self, n: int) -> np.ndarray:
        base = self.state
        counters = (np.uint64(base) +
                    np.uint64(_GAMMA) * np.arange(1, n + 1, dtype=np.uint64))
        self.state = (base + _GAMMA * n) & _MASK
        z = counters
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def uniform_array(self, shape) -> np.ndarray:
        n = int(np.prod(shape)) if np.ndim(shape) or isinstance(shape, (tuple, list)) else int(shape)
        u = (self._next_block(n) >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
        return u.reshape(shape)

    def normal_array(self, shape, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        n = int(np.prod(shape))
        u1 = np.maximum(self.uniform_array(n), 1e-300)
        u2 = self.uniform_array(n)
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return (mu + sigma * z).reshape(shape)
