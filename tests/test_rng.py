"""The array draws of `Rng` against its scalar stream, and the pinned stream."""

import hashlib
import re

import numpy as np
import pytest

from fsglab import rng as rng_module
from fsglab.errors import DomainError
from fsglab.rng import Rng

SEEDS = [0, 1, 31, 2**64 - 5, 123456789]
CUTOFF = rng_module._ARRAY_CUTOFF
# below, at and above the scalar-loop cutoff, odd and even
SIZES = [0, 1, 2, CUTOFF - 1, CUTOFF, CUTOFF + 1, 64, 65, 1001, 20480]


def scalar_permutation(rng, n):
    """Fisher-Yates on integer() draws, one swap per draw."""
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = rng.integer(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def draws_taken(seed, state):
    """How many u64() draws took a generator from seed to state."""
    return (state - seed) * pow(rng_module._GOLDEN, -1, 2**64) % 2**64


def pair(seed, spare):
    """Two generators at the same point, a Box-Muller spare cached if asked."""
    a, b = Rng(seed), Rng(seed)
    if spare:
        assert a.normal() == b.normal()
    return a, b


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spare", [False, True])
def test_normals_are_the_scalar_stream(seed, spare):
    a, b = pair(seed, spare)
    for size in SIZES:
        got = a.normals(size)
        want = np.array([b.normal() for _ in range(size)], dtype=np.float64)
        assert got.tobytes() == want.tobytes() and a.state == b.state, size
    # the spare an odd count leaves goes to the next array call and normal()
    for size in (CUTOFF + 1, CUTOFF + 2, 1):
        assert a.normals(size).tobytes() == np.array([b.normal() for _ in range(size)]).tobytes()
        assert a.normal() == b.normal() and a.state == b.state


@pytest.mark.parametrize("seed", SEEDS)
def test_uniforms_are_the_scalar_stream(seed):
    a, b = pair(seed, True)
    for size in SIZES:
        got = a.uniforms(size)
        want = np.array([b.uniform() for _ in range(size)], dtype=np.float64)
        assert got.tobytes() == want.tobytes() and a.state == b.state, size
    assert a.normal() == b.normal()  # uniforms leave the spare alone


@pytest.mark.parametrize("cutoff", [0, 1])
def test_array_path_at_every_small_size(monkeypatch, cutoff):
    monkeypatch.setattr(rng_module, "_ARRAY_CUTOFF", cutoff)
    for seed in (0, 31):
        for spare in (False, True):
            a, b = pair(seed, spare)
            for size in range(6):
                assert a.normals(size).tobytes() == np.array(
                    [b.normal() for _ in range(size)], dtype=np.float64).tobytes()
                assert a.uniforms(size).tobytes() == np.array(
                    [b.uniform() for _ in range(size)], dtype=np.float64).tobytes()
                assert a.permutation(size).tobytes() == scalar_permutation(b, size).tobytes()
                assert a.state == b.state
            assert a.normal() == b.normal()


def test_array_shapes():
    for shape in ((3, 5), (4, 1, 6), (), 0, (2, 0), 40):
        for draws in ("normals", "uniforms"):
            assert getattr(Rng(3), draws)(shape).shape == np.empty(shape).shape


@pytest.mark.parametrize("seed", SEEDS)
def test_permutation_is_scalar_fisher_yates(seed):
    a, b = Rng(seed), Rng(seed)
    for n in (0, 1, 2, 3, 17, 512, 800, 5000):
        got, want = a.permutation(n), scalar_permutation(b, n)
        assert got.dtype == want.dtype == np.arange(n).dtype
        assert got.tobytes() == want.tobytes() and a.state == b.state, n
        assert sorted(got.tolist()) == list(range(n))


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_bounded_draws_redraw_like_integer(seed):
    # 2**63 < b: a draw is rejected when it is >= b, about half of them
    bounds = [2**63 + k for k in range(1, 600, 3)] + [2**63 - 1, 2**64 - 1, 1, 2, 3, 2**64 // 3 + 1]
    a, b = Rng(seed), Rng(seed)
    got = a._integers(np.array(bounds, dtype=np.uint64)).tolist()
    assert got == [b.integer(n) for n in bounds]
    assert a.state == b.state
    assert draws_taken(seed, a.state) > 1.3 * len(bounds)  # many draws were rejected


def test_integer_takes_bounds_up_to_two_to_the_64():
    a, b = Rng(5), Rng(5)
    assert a.integer(2**64) == b.u64()
    assert a.integer(1) == b.integer(1) == 0
    assert a.integer(np.int64(7)) == b.integer(7) and a.state == b.state


@pytest.mark.parametrize("n", [2**64 + 1, 2**65, 0, -3, 2.5, 3.0, "4", None])
def test_integer_rejects_bounds_outside_one_to_two_to_the_64(n):
    with pytest.raises(DomainError, match=f"got {re.escape(repr(n))}$"):
        Rng(0).integer(n)


# sha256 of the bytes each draw gives; a change to the array path, or to how
# numpy computes on uint64, would re-seed every run without these
PINNED = {
    "normals": ("c2bf6999cef7e31f908a9e41b99993c98c3c49f3d10eeddb35cb8cfd98320897",
                lambda: Rng(1).normals(10_000)),
    "uniforms": ("04ad906bae0f2bec124a9c41d2f3903379333cf987aa00ed856140a4966a232c",
                 lambda: Rng(1).uniforms(1000)),
    "permutation": ("6a3c3ee95ecd16063d198fd4b73352506fcbad741351eee78f2b56009f743bc9",
                    lambda: Rng(1).permutation(1000).astype(np.int64)),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_stream(name):
    digest, draw = PINNED[name]
    assert hashlib.sha256(draw().tobytes()).hexdigest() == digest
