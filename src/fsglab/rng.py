"""Seeded, portable pseudo-random generator.

The core generator is SplitMix64 (Steele, Lea & Flood's mix function), chosen
because its output sequence is fully specified by a handful of 64-bit integer
operations: identical seeds give identical streams on every platform and
Python version.  Gaussian draws use Box-Muller on top of the uniform stream;
those are reproducible bit-for-bit on a given platform and agree across
platforms up to libm rounding of log/cos/sin.

Streams for independent purposes (model init, data shuffling, ...) should be
obtained with `derive(label)`, which keys a child generator off the original
seed and the label only, so adding a new consumer never shifts an existing
stream.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


class Rng:
    """SplitMix64 stream with uniform/normal/integer helpers."""

    def __init__(self, seed: int):
        self.seed0 = seed & _MASK64
        self._state = self.seed0
        self._spare_normal = None

    # -- core stream ------------------------------------------------------

    def u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.u64() >> 11) * (1.0 / (1 << 53))

    def normal(self) -> float:
        """Standard normal via Box-Muller; pairs are cached."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        u1 = 1.0 - self.uniform()  # (0, 1], keeps log() finite
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (unbiased)."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            v = self.u64()
            if v < limit:
                return v % n

    # -- array helpers ----------------------------------------------------

    def normals(self, shape) -> np.ndarray:
        return self._fill(self.normal, shape)

    def uniforms(self, shape) -> np.ndarray:
        return self._fill(self.uniform, shape)

    @staticmethod
    def _fill(draw, shape) -> np.ndarray:
        """An array of `shape` filled in C order by successive draw() calls."""
        size = int(np.prod(shape))  # 1 for shape (), 0 for an empty one
        return np.fromiter((draw() for _ in range(size)), np.float64, size).reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.integer(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    # -- stream management --------------------------------------------------

    def derive(self, label: str) -> "Rng":
        """Child stream keyed by (original seed, label); order-independent."""
        return Rng(self.seed0 ^ _fnv1a(label.encode("utf-8")))

    @property
    def state(self) -> int:
        return self._state

    def set_state(self, state: int) -> None:
        self._state = state & _MASK64
        self._spare_normal = None
