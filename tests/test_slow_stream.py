"""The streaming selective block against the per-token reference in `slow_reference`.

`slow_forward_cached` / `slow_backward` run the streaming kernel, which scans
the history chunk by chunk in log space; the reference steps the recurrence
one token at a time and keeps every (T, d_inner, N) intermediate.
"""

import tracemalloc

import numpy as np
import pytest

from fsglab.hypernet import HyperNetBundle, _build_tokens, slow_backward, slow_forward_cached
from fsglab.rng import Rng
from fsglab.ssm import discretize_zoh, ssm_scan
from slow_reference import selective_terms, slow_net

TOL = 1e-10


def o1_bundle(seed, d=4, n_state=3, expand=2):
    bundle = HyperNetBundle.init(Rng(seed), n_layers=3, fast_kind="off",
                                 slow_kind="selective-ssm", fast_hidden=1, d=d,
                                 n_state=n_state, expand=expand)
    r = Rng(seed ^ 0x5EED)
    for name, arr in bundle.named_params():
        if name == "slow.a_log":
            arr[...] = r.uniforms(arr.shape) * 1.2 - 0.6
        else:
            arr[...] = 0.5 * r.normals(arr.shape)
    return bundle


def rel_err(got, ref):
    scale = np.max(np.abs(ref))
    diff = np.max(np.abs(got - ref))
    return diff / scale if scale > 0.0 else diff


def check_against_reference(bundle, history, shape, chunk, layer=1):
    cot = Rng(5).normals(shape)
    ref_out, ref_grads = slow_net(layer, history, bundle, shape, cot)
    out, cache = slow_forward_cached(layer, history, bundle, shape, chunk=chunk)
    grads = slow_backward(layer, None, bundle, shape, cot, cache=cache)
    assert rel_err(out, ref_out) < TOL
    names = [name for name, _ in bundle.named_params()]
    assert sorted(grads) == sorted(ref_grads) == sorted(names)
    for name in names:
        assert rel_err(grads[name], ref_grads[name]) < TOL, name
    return cache


@pytest.mark.parametrize("dims", [(4, 3, 2), (16, 8, 2), (3, 2, 1)])
@pytest.mark.parametrize("xi,l,chunk", [
    (6, 3, 5),  # chunk [10, 15) straddles the tail start at token 13
    (6, 3, 4),
    (6, 1, 4),  # l = 1: the tail is every history token
    (1, 1, 3),
    (12, 4, 7),
    (64, 6, 128),  # a chunk longer than the sequence, unless the guard shrinks it
])
def test_matches_reference_block(dims, xi, l, chunk):
    bundle = o1_bundle(xi * 100 + l * 10 + chunk, *dims)
    history = Rng(xi + l).normals(xi * l)
    cache = check_against_reference(bundle, history, (xi,), chunk)
    assert not cache["plan"][1]


def test_forced_chunk_shrink():
    bundle = o1_bundle(3)
    bundle.slow.a_log[0] = 3.0  # |A| ~ 20 on one channel
    cache = check_against_reference(bundle, Rng(4).normals(60), (12,), 50)
    chunk, step = cache["plan"]
    assert 1 < chunk < 50 and not step


def test_stepping_fallback():
    bundle = o1_bundle(5)
    bundle.slow.a_log[0] = 7.0  # |A| ~ 1100 on one channel: max |ld| > 300
    cache = check_against_reference(bundle, Rng(6).normals(60), (12,), 50)
    assert cache["plan"] == (1, True)


@pytest.mark.parametrize("b_delta", [-30.0, -800.0])
def test_ld_clamp(b_delta):
    # softplus of a very negative pre-activation gives delta * |A| < 1e-12
    # (at -800 it underflows to zero), so the clamp on ld fires
    bundle = o1_bundle(7)
    bundle.slow.b_delta[...] = b_delta
    cache = check_against_reference(bundle, Rng(8).normals(60), (12,), 5)
    assert float(cache["delta"].min()) * float(cache["a"].max()) > -1e-12


def test_pre_gate_output_matches_reference_scan():
    """The production block's y against ssm_scan on per-step (selective) parameters."""
    bundle = o1_bundle(9)
    p = bundle.slow
    xi, l = 5, 4
    history = Rng(10).normals(xi * l)
    _, cache = slow_forward_cached(2, history, bundle, (xi,), chunk=6)
    _, tokens = _build_tokens(2, history, bundle)
    u = tokens @ p.w_in
    b_t, c_t, delta_t = selective_terms(u, p)
    a_bar, b_bar = discretize_zoh(-np.exp(p.a_log), b_t[:, None, :], delta_t[:, :, None])
    y = ssm_scan(a_bar, b_bar, c_t, u)
    assert rel_err(cache["y"], y[-xi:]) < TOL


def test_memory_bound_at_paper_dims():
    """tracemalloc peak of slow fwd+bwd at xi = 1024 (6145 tokens); a bound, not a speed."""
    bundle = HyperNetBundle.init(Rng(11), n_layers=1, fast_kind="off",
                                 slow_kind="selective-ssm", fast_hidden=1, d=16,
                                 n_state=8, expand=2)
    xi = 1024
    history = 1e-2 * Rng(12).normals(xi * 6)
    cot = Rng(13).normals((32, 32))
    tracemalloc.start()
    try:
        _, cache = slow_forward_cached(0, history, bundle, (32, 32))
        slow_backward(0, None, bundle, (32, 32), cot, cache=cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * 2**20, f"peak {peak / 2**20:.1f} MiB"
