"""Seeded, portable pseudo-random generator.

The core generator is SplitMix64 (Steele, Lea & Flood's mix function), chosen
because its output sequence is fully specified by a handful of 64-bit integer
operations: identical seeds give identical streams on every platform and
Python version.  Gaussian draws use Box-Muller on top of the uniform stream;
those are reproducible bit-for-bit on a given platform and agree across
platforms up to libm rounding of log/cos/sin.

The scalar draws (`u64`, `uniform`, `normal`, `integer`) define the stream.
The array draws (`normals`, `uniforms`, `permutation`) give the same bits
and leave the same state, Box-Muller spare included, as a loop of scalar
draws.  SplitMix64 is counter-based: the k-th output after state s is the
mix of s + k * golden, so an array of n outputs takes a few wrapping uint64
numpy operations (`_u64s`).  Box-Muller's log, cos and sin still go through
`math`, the libm calls `normal` makes, because numpy's vector loops may round
them differently; its sqrt and multiplies run in numpy, which rounds them
as IEEE 754 requires.  A permutation draws its Fisher-Yates indices at once
and redraws from a rejected draw on (`_integers`).  `normals` of fewer than
`_ARRAY_CUTOFF` values, where numpy's call overhead costs more than the
loop, runs the scalar loop.

Streams for independent purposes (model init, data shuffling, ...) should be
obtained with `derive(label)`, which keys a child generator off the original
seed and the label only, so adding a new consumer never shifts an existing
stream.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# The constants as numpy uint64 scalars, so no array arithmetic on uint64
# mixes in a Python int, which numpy 1.x may promote to float64.
_ZERO = np.uint64(0)
_GOLDEN_U = np.uint64(_GOLDEN)
_MIX1_U = np.uint64(_MIX1)
_MIX2_U = np.uint64(_MIX2)
_SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = (np.uint64(k) for k in (11, 27, 30, 31))
# normals() of fewer values than this runs the scalar loop, as the convex
# runs' many 10-value draws do.  Best of 7 x 200 calls (numpy 2.4, one Xeon
# core), scalar loop against array path: 8 values take 12 against 20 us,
# 16 take 18 against 20 and 24 take 26 against 22.
_ARRAY_CUTOFF = 16


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def _libm(f, values: list) -> np.ndarray:
    """f of each value, as a float64 array."""
    return np.fromiter(map(f, values), np.float64, len(values))


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
        """Uniform integer in [0, n) by rejection (unbiased), for an int 1 <= n <= 2**64."""
        try:
            n = operator.index(n)
        except TypeError:
            raise DomainError(f"integer bound must be an int, got {n!r}") from None
        if not 1 <= n <= _MASK64 + 1:
            raise DomainError(f"integer bound must lie in [1, 2**64], got {n}")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            v = self.u64()
            if v < limit:
                return v % n

    # -- array helpers ----------------------------------------------------

    def normals(self, shape) -> np.ndarray:
        size = int(np.prod(shape))  # 1 for shape (), 0 for an empty one
        if size < _ARRAY_CUTOFF:
            draws = (self.normal() for _ in range(size))
            return np.fromiter(draws, np.float64, size).reshape(shape)
        out = np.empty(size, dtype=np.float64)
        head = 0
        if size and self._spare_normal is not None:
            out[0], self._spare_normal, head = self._spare_normal, None, 1
        pairs = (size - head + 1) // 2
        u = self._uniforms(2 * pairs)
        # normal()'s Box-Muller: log, cos and sin by math's libm calls, which
        # numpy's vector loops may round differently; the rest is IEEE-exact
        r = np.sqrt(-2.0 * _libm(math.log, (1.0 - u[0::2]).tolist()))
        theta = (2.0 * math.pi * u[1::2]).tolist()
        sin = r * _libm(math.sin, theta)
        out[head::2] = r * _libm(math.cos, theta)
        out[head + 1 :: 2] = sin[: (size - head) // 2]
        if (size - head) % 2:
            self._spare_normal = float(sin[-1])
        return out.reshape(shape)

    def uniforms(self, shape) -> np.ndarray:
        return self._uniforms(int(np.prod(shape))).reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        js = self._integers(np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        perm = np.arange(n)
        order = perm.tolist()
        for i, j in zip(range(n - 1, 0, -1), js):
            order[i], order[j] = order[j], order[i]
        perm[:] = order
        return perm

    # -- counter-based draws ------------------------------------------------

    def _u64s(self, n: int) -> np.ndarray:
        """The next n outputs of u64() as a uint64 array.

        Output k is the mix of state + k * golden: uint64 arithmetic wraps
        mod 2**64 as u64()'s masks do, so no draw waits on the one before.
        """
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _GOLDEN_U
        z += np.uint64(self._state)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        z ^= z >> _SHIFT30
        z *= _MIX1_U
        z ^= z >> _SHIFT27
        z *= _MIX2_U
        z ^= z >> _SHIFT31
        return z

    def _uniforms(self, n: int) -> np.ndarray:
        """The next n uniform() draws; both steps are exact."""
        return (self._u64s(n) >> _SHIFT11).astype(np.float64) * (1.0 / (1 << 53))

    def _integers(self, bounds: np.ndarray) -> np.ndarray:
        """integer(b) for each b, in order, of a uint64 array of bounds >= 1.

        A draw v is rejected when v >= 2**64 - (2**64 mod b).  The stream is
        drawn for every bound still open at once; at the first rejected draw
        the state is set back to just after it and the draws resume there, so
        the values and the state are integer()'s.
        """
        # 2**64 mod b; 0 - rem wraps to 2**64 - rem, which for rem = 0 is no limit
        rem = (_ZERO - bounds) % bounds
        out = np.empty_like(bounds)
        done = 0
        while done < len(bounds):
            start = self._state
            v = self._u64s(len(bounds) - done)
            tail = rem[done:]
            rejected = np.flatnonzero((tail != 0) & (v >= _ZERO - tail))
            take = int(rejected[0]) if rejected.size else len(v)
            out[done : done + take] = v[:take] % bounds[done : done + take]
            done += take
            if rejected.size:
                self._state = (start + (take + 1) * _GOLDEN) & _MASK64
        return out

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
