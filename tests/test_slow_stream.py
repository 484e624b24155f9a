"""The streaming selective block against the per-token reference in `slow_reference`.

`slow_forward_cached` / `slow_backward` run the streaming kernel, which scans
the history chunk by chunk in log space; the reference steps the recurrence
one token at a time and keeps every (T, d_inner, N) intermediate.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from fsglab import hypernet, ssm, tensor
from fsglab.errors import DomainError
from fsglab.hypernet import HyperNetBundle, slow_backward, slow_forward_cached
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow, divide or invalid in the kernel
        out, cache = slow_forward_cached(layer, history, bundle, shape, chunk=chunk)
        grads = slow_backward(layer, None, bundle, shape, cot, cache=cache)
    assert np.all(np.isfinite(out)) and all(np.all(np.isfinite(g)) for g in grads.values())
    assert rel_err(out, ref_out) < TOL
    names = [name for name, _ in bundle.named_params()]
    assert sorted(grads) == sorted(ref_grads) == sorted(names)
    for name in names:
        assert rel_err(grads[name], ref_grads[name]) < TOL, name
    return cache


@pytest.mark.parametrize("dims", [(4, 3, 2), (16, 8, 2), (3, 2, 1)])
@pytest.mark.parametrize("xi,l,chunk", [
    (6, 3, 5),  # the last chunk before the tail start (token 13) is cut short
    (6, 3, 4),  # chunks from token 1 end exactly at the tail start
    (6, 3, 1),  # one token per chunk: the plain recurrence throughout
    (6, 1, 4),  # l = 1: the tail is every history token
    (1, 1, 3),
    (12, 4, 7),
    (64, 6, 128),  # a chunk longer than the sequence, unless the guard shrinks it
])
def test_matches_reference_block(dims, xi, l, chunk):
    bundle = o1_bundle(xi * 100 + l * 10 + chunk, *dims)
    history = Rng(xi + l).normals(xi * l)
    cache = check_against_reference(bundle, history, (xi,), chunk)
    assert (cache["chunk"] == 1) == (chunk == 1)


def small_kinds(cache):
    """Whether each chunk has an ld above -PHI_CUTOFF (a small-|ld| chunk), in chunk order."""
    return [small for _, _, small in cache["walk"]]


@pytest.mark.parametrize("dims", [(4, 3, 2), (3, 2, 1)])
def test_one_token_remainder_chunks(dims):
    # 7 tokens before the tail (from token 1) and 7 in it, in chunks of 3: each
    # run ends in a one-token chunk, which takes the plain recurrence
    xi, l, chunk = 7, 2, 3
    bundle = o1_bundle(31, *dims)
    cache = check_against_reference(bundle, Rng(32).normals(xi * l), (xi,), chunk)
    assert cache["t0"] == 0 and cache["chunk"] == chunk
    # the tail starts at token 8; (7, 8) and (14, 15) are the one-token chunks
    spans = [(1, 4), (4, 7), (7, 8), (8, 11), (11, 14), (14, 15)]
    assert cache["walk"] == [(s, e, False) for s, e in spans]


def test_clamp_and_unclamped_chunks_in_one_sequence():
    # b_delta = -19.5 and |s_t v w_delta| in [19.5, 22.5]: delta_t = softplus(0..3)
    # on positive pre-activations and softplus(-42..-39) < 1e-16 (delta |A| below
    # 1e-12, small-|ld| chunks) on negative ones
    bundle = o1_bundle(22)
    p = bundle.slow
    p.b_delta[...] = -19.5
    dv = float(bundle.w_a[0] @ p.w_in @ p.w_delta[:, 0])
    xi, l, chunk = 12, 5, 5
    tail0 = xi * (l - 1) + 1
    starts = [*range(1, tail0, chunk), *range(tail0, xi * l + 1, chunk)]
    sign = np.empty(xi * l)
    for k, (s, e) in enumerate(zip(starts, starts[1:] + [xi * l + 1])):
        sign[s - 1 : e - 1] = (-1.0) ** k
    sign[7] = 1.0  # one token with |ld| >= PHI_CUTOFF inside a small-|ld| chunk
    history = sign * (19.5 + 3.0 * Rng(25).uniforms(xi * l)) / dv
    cache = check_against_reference(bundle, history, (xi,), chunk)
    kinds = small_kinds(cache)
    assert cache["chunk"] == chunk and [s for s, _, _ in cache["walk"]] == starts
    assert any(kinds[:-3]) and not all(kinds[:-3])  # before the tail
    assert any(kinds[-3:]) and not all(kinds[-3:])  # in the tail


@pytest.mark.parametrize("a_log,b_delta,tiny", [
    (-800.0, 0.0, True),  # below _A_LOG_FLOOR on one channel (exp(-800) is 0.0): A = -exp(floor)
    (-30.0, 0.0, True),  # |A| ~ 1e-13 and delta ~ 1: delta |A| < 1e-12
    (-30.0, 25.0, False),  # delta ~ 25 lifts delta |A| above 1e-12: M = v / A ~ 1e13
])
def test_near_zero_a(a_log, b_delta, tiny):
    bundle = o1_bundle(23)
    bundle.slow.a_log[0] = a_log
    bundle.slow.b_delta[...] = b_delta
    xi, l = 12, 5
    cache = check_against_reference(bundle, Rng(24).normals(xi * l), (xi,), 5)
    assert bool((cache["delta"] * float(-cache["a"][0].min()) < 1e-12).all()) == tiny
    assert all(small_kinds(cache))  # the near-zero channel's ld is in every chunk


def test_forced_chunk_shrink():
    bundle = o1_bundle(3)
    bundle.slow.a_log[0] = 3.0  # |A| ~ 20 on one channel
    cache = check_against_reference(bundle, Rng(4).normals(60), (12,), 50)
    assert 1 < cache["chunk"] < 50


def test_stepping_fallback():
    bundle = o1_bundle(5)
    bundle.slow.a_log[0] = 7.0  # |A| ~ 1100 on one channel: max |ld| > 300
    cache = check_against_reference(bundle, Rng(6).normals(60), (12,), 50)
    assert cache["chunk"] == 1 and all(e - s == 1 for s, e, _ in cache["walk"])


@pytest.mark.parametrize("b_delta", [-30.0, -800.0])
def test_ld_clamp(b_delta):
    # softplus of a very negative pre-activation gives delta * |A| < 1e-12
    # (at -800 it underflows to zero, and so do ld and the scan input)
    bundle = o1_bundle(7)
    bundle.slow.b_delta[...] = b_delta
    cache = check_against_reference(bundle, Rng(8).normals(60), (12,), 5)
    assert float(cache["delta"].min()) * float(cache["a"].max()) > -1e-12
    assert all(small_kinds(cache))


LONGDOUBLE_IS_WIDER = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps


@pytest.mark.skipif(not LONGDOUBLE_IS_WIDER,
                    reason="np.longdouble is float64 here, so the oracle cannot be run wider")
@pytest.mark.parametrize("b_delta", [-15.0, -20.0, -25.0, -27.0, -30.0, -800.0])
def test_small_ld_matches_longdouble_oracle(b_delta):
    """At delta |A| from 1e-7 down to 0, the production block and the float64 oracle
    against the oracle run in np.longdouble, each value rounded to float64 (at -800 the
    exact delta, 1e-348, and the gradients it scales round to 0.0).  The a_log gradient
    is where the shares through ld and through M = v / A, or phi' taken as
    (exp(ld) - phi) / ld, would cancel to about 1e-16 / |ld|."""
    bundle = o1_bundle(7)
    bundle.slow.b_delta[...] = b_delta
    history, cot = Rng(8).normals(60), Rng(5).normals((12,))
    exact_out, exact = slow_net(1, history, bundle, (12,), cot, dtype=np.longdouble)
    ref_out, ref = slow_net(1, history, bundle, (12,), cot)
    out, cache = slow_forward_cached(1, history, bundle, (12,), chunk=5)
    grads = slow_backward(1, None, bundle, (12,), cot, cache=cache)
    assert all(small_kinds(cache))
    assert exact_out.dtype == np.longdouble
    for got_out, got in ((out, grads), (ref_out, ref)):
        assert rel_err(got_out, exact_out.astype(np.float64)) < TOL
        assert sorted(got) == sorted(exact)
        for name, g in exact.items():
            assert rel_err(got[name], g.astype(np.float64)) < TOL, name


@pytest.mark.parametrize("chunk", [2, 6])
def test_selective_branch_matches_reference_scan(chunk):
    """The production block's output minus its residual, (y * gate) @ w_out on the last xi
    tokens, against y from ssm_scan on per-step (selective) parameters; the readout streams
    through the tail chunks, here also split with a ragged last one."""
    bundle = o1_bundle(9)
    p = bundle.slow
    xi, l = 5, 4
    history = Rng(10).normals(xi * l)
    _, cache = slow_forward_cached(2, history, bundle, (xi,), chunk=chunk)
    tail0 = xi * (l - 1) + 1
    assert [e - s for s, e, _ in cache["walk"] if s >= tail0] == {2: [2, 2, 1], 6: [5]}[chunk]
    tokens = np.concatenate([bundle.lre[2][None], history[:, None] * bundle.w_a])
    u = tokens @ p.w_in
    b_t, c_t, delta_t = selective_terms(u, p)
    a_bar, b_bar = discretize_zoh(-np.exp(p.a_log), b_t[:, None, :], delta_t[:, :, None])
    y = ssm_scan(a_bar, b_bar, c_t, u)
    gate = 1.0 / (1.0 + np.exp(-(tokens @ p.w_gate)))
    assert rel_err(cache["sliced"] - tokens[-xi:], ((y * gate) @ p.w_out)[-xi:]) < TOL


def paper_dims_bundle():
    return HyperNetBundle.init(Rng(11), n_layers=1, fast_kind="off", slow_kind="selective-ssm",
                               fast_hidden=1, d=16, n_state=8, expand=2)


def test_bytes_per_token_at_paper_dims():
    """tracemalloc peak of slow fwd+bwd at xi = 4096, l = 6 (24577 tokens): at most 200 B a
    token.  The cache keeps the tokens as their (T,) scales and none of the readout's
    (xi, d_inner) or (xi, N) terms, which the backward recomputes chunk by chunk; its own
    arrays (views excluded) stay within 1.5 MiB."""
    bundle = paper_dims_bundle()
    xi, l = 4096, 6
    history = 1e-2 * Rng(12).normals(xi * l)
    cot = Rng(13).normals((64, 64))
    tracemalloc.start()
    try:
        _, cache = slow_forward_cached(0, history, bundle, (64, 64))
        slow_backward(0, None, bundle, (64, 64), cot, cache=cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tokens = xi * l + 1
    assert cache["tokens"].shape == (tokens,)
    assert not {"y", "gate", "gated", "c_tail"} & cache.keys()
    owned = sum(v.nbytes for v in cache.values() if isinstance(v, np.ndarray) and v.base is None)
    assert owned <= 1.5 * 2**20, f"cache {owned / 2**20:.2f} MiB"
    assert peak / tokens <= 200, f"{peak / tokens:.0f} B per token"


def test_pre_tail_chunks_at_paper_dims():
    """The forward at test_bytes_per_token_at_paper_dims's setup walks at most 16 chunks before
    the tail (192 from token 1): a count, not a speed."""
    xi, l = 4096, 6
    tail0 = xi * (l - 1) + 1
    _, cache = slow_forward_cached(0, 1e-2 * Rng(12).normals(xi * l), paper_dims_bundle(), (64, 64))
    assert cache["t0"] > 0
    assert 0 < sum(s < tail0 for s, _, _ in cache["walk"]) <= 16


def test_no_multi_axis_cumsum_at_paper_dims(monkeypatch):
    """No np.cumsum call in slow fwd+bwd at test_bytes_per_token_at_paper_dims's setup gets a
    (c, d_inner, N) array: those scans are blocked GEMMs (`_scan`).  A count, not a speed."""
    ndims = []
    real = np.cumsum

    def counted(a, *args, **kwargs):
        ndims.append(np.ndim(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", counted)
    bundle = paper_dims_bundle()
    history = 1e-2 * Rng(12).normals(4096 * 6)
    _, cache = slow_forward_cached(0, history, bundle, (64, 64))
    slow_backward(0, None, bundle, (64, 64), Rng(13).normals((64, 64)), cache=cache)
    assert ndims and max(ndims) < 2


def test_recurrence_calls_at_paper_dims(monkeypatch):
    """At test_bytes_per_token_at_paper_dims's setup every walked chunk, before the tail and in
    it, runs `linear_recurrence` once in the forward and once in the backward's recompute, and
    `linear_recurrence_backward` once, each on that chunk's decay.  A count, not a speed."""
    calls = []
    for name in ("linear_recurrence", "linear_recurrence_backward"):
        def counted(decay, *rest, _name=name, _f=getattr(hypernet, name)):
            calls.append((_name, decay.shape[0]))
            return _f(decay, *rest)
        monkeypatch.setattr(hypernet, name, counted)
    bundle = paper_dims_bundle()
    history = 1e-2 * Rng(12).normals(4096 * 6)
    _, cache = slow_forward_cached(0, history, bundle, (64, 64))
    forward = list(calls)
    slow_backward(0, None, bundle, (64, 64), Rng(13).normals((64, 64)), cache=cache)
    tail0 = history.size + 1 - 4096
    lengths = [e - s for s, e, _ in cache["walk"]]
    assert cache["chunk"] > 1 and sum(lengths) == history.size + 1 - max(cache["t0"], 1)
    assert any(s < tail0 for s, _, _ in cache["walk"])
    assert forward == [("linear_recurrence", c) for c in lengths]
    assert calls[len(forward):] == [(name, c) for c in reversed(lengths) for name in
                                    ("linear_recurrence", "linear_recurrence_backward")]


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("inner", [(8, 3), (32, 8)])  # widths 24 and 256
@pytest.mark.parametrize("length", [1, 15, 16, 17, 107, 128, 129])
def test_blocked_scan_matches_cumsum(length, inner, reverse):
    x = Rng(length * 31 + inner[0]).normals((length,) + inner)
    ref = np.cumsum(x[::-1], axis=0)[::-1] if reverse else np.cumsum(x, axis=0)
    out = ssm._scan(x, np.empty_like(x), reverse)
    assert rel_err(out, ref) < 1e-14
    in_place = x.copy()
    ssm._scan(in_place, in_place, reverse)
    assert rel_err(in_place, ref) < 1e-14


def test_expansion_gemms_equal_broadcasts():
    """r = M (x) w_t from `_ChunkTerms.scan`'s GEMM against the fixed expansion, bit for
    bit, with zero and negative history scalars."""
    bundle = o1_bundle(28, 16, 8, 2)
    p = bundle.slow
    history = Rng(29).normals(40)
    history[::5] = 0.0
    history[1::3] = -np.abs(history[1::3])
    v = bundle.w_a[0] @ p.w_in
    a = -np.exp(p.a_log)
    delta = hypernet._softplus(np.concatenate(([0.0], history)) * (v @ p.w_delta[:, 0]) + 0.3)
    terms = hypernet._ChunkTerms(history, delta, v, p, a, 16)
    s, e = 3, 19
    r = terms.scan(s, e)[3]
    ws = terms.weights(s, e)
    assert np.array_equal(ws, [history[s:e] ** 2, history[s:e]])
    w = ws.T @ terms.bb  # w_t = s_t B_t
    assert (w == 0.0).any() and (w < 0.0).any()
    assert np.array_equal(r, terms.m * w[:, None, :])


def test_memory_bound_at_paper_dims():
    """tracemalloc peak of slow fwd+bwd at xi = 1024 (6145 tokens); a bound, not a speed."""
    bundle = paper_dims_bundle()
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


# Decay horizon: with b_delta = 4, delta ~ 4 and every channel decays by
# e^-2 or more a token, so tokens before t0 reach the tail start only through
# a product below exp(_LOG_UNDERFLOW).  The oracle steps every token; its lre
# gradient is then exactly 0.0 (a case near the margin, where it is a
# subnormal, matches no summation order at 1e-10 and is avoided).
def horizon_case(dims, xi, l, b_delta=4.0):
    bundle = o1_bundle(xi * 100 + l, *dims)
    bundle.slow.b_delta[...] = b_delta
    return bundle, Rng(xi + l).normals(xi * l)


@pytest.mark.parametrize("dims", [(4, 3, 2), (16, 8, 2), (3, 2, 1)])
@pytest.mark.parametrize("xi,l,chunk", [
    (12, 40, 16),
    (16, 30, 7),
    (6, 100, 1),  # one token per chunk: the plain recurrence throughout
    (12, 40, 4096),  # longer than the kept run: the guard caps a chunk at 600 / max|ld|,
                     # under the 750 / max|ld| tokens the horizon keeps at least
])
def test_horizon_matches_reference(dims, xi, l, chunk):
    bundle, history = horizon_case(dims, xi, l)
    cache = check_against_reference(bundle, history, (xi,), chunk)
    assert 1 < cache["t0"] < xi * (l - 1) + 1
    assert (cache["chunk"] == 1) == (chunk == 1)


def test_horizon_zeroes_lre_gradient():
    # a cotangent of 1e100 lifts the adjoint that reaches token t0 - 1 (below
    # e^-750 times the tail's) into the normal range; token 0's is still 0.0
    bundle, history = horizon_case((4, 3, 2), 12, 40)
    cot = 1e100 * Rng(5).normals((12,))
    _, ref_grads = slow_net(1, history, bundle, (12,), cot)
    _, cache = slow_forward_cached(1, history, bundle, (12,), chunk=16)
    grads = slow_backward(1, None, bundle, (12,), cot, cache=cache)
    assert cache["t0"] > 0
    assert np.all(grads["lre"] == 0.0) and np.all(ref_grads["lre"] == 0.0)


def test_horizon_with_clamp_and_unclamped_chunks_on_both_sides():
    # the b_delta = -19.5 pattern over a long history: signs alternate in
    # blocks of three chunks, so whatever chunk grid starts at t0, each block
    # holds whole chunks of its kind
    bundle = o1_bundle(26)
    p = bundle.slow
    p.b_delta[...] = -19.5
    dv = float(bundle.w_a[0] @ p.w_in @ p.w_delta[:, 0])
    xi, l, chunk = 30, 40, 5
    sign = (-1.0) ** (np.arange(xi * l) // (3 * chunk))
    history = sign * (20.5 + 3.0 * Rng(27).uniforms(xi * l)) / dv
    cache = check_against_reference(bundle, history, (xi,), chunk)
    t0, tail0 = cache["t0"], xi * (l - 1) + 1
    assert cache["chunk"] == chunk and t0 > 1
    small = cache["delta"] * float(cache["a"].max()) > -ssm.PHI_CUTOFF
    assert small[1:t0].any() and not small[1:t0].all()  # dropped
    kinds = small_kinds(cache)
    n_pre = -(-(tail0 - t0) // chunk)
    assert any(kinds[:n_pre]) and not all(kinds[:n_pre])  # kept, before the tail
    assert any(kinds[n_pre:]) and not all(kinds[n_pre:])  # in the tail


def test_horizon_with_stepping():
    bundle, history = horizon_case((4, 3, 2), 12, 40)
    bundle.slow.a_log[0] = 7.0  # |A| ~ 1100 on one channel: max |ld| > 300
    cache = check_against_reference(bundle, history, (12,), 16)
    assert cache["chunk"] == 1 and cache["t0"] > 1


def test_dropped_outlier_does_not_size_the_chunk_plan():
    # a history value before the horizon with max|ld| > 300 would force one-token
    # chunks if the chunk were sized over the whole history; the kernel cannot read it
    bundle, history = horizon_case((4, 3, 2), 12, 40)
    cot = Rng(5).normals((12,))
    out, cache = slow_forward_cached(1, history, bundle, (12,), chunk=16)
    grads = slow_backward(1, None, bundle, (12,), cot, cache=cache)
    t0 = cache["t0"]
    assert t0 > 2  # history[t0 // 2] is token t0 // 2 + 1, before t0
    p = bundle.slow
    a_max = float(np.exp(p.a_log).max())
    dv = float(bundle.w_a[0] @ p.w_in @ p.w_delta[:, 0])
    spiked = history.copy()
    spiked[t0 // 2] = (400.0 / a_max - p.b_delta[0]) / dv
    spiked_cache = check_against_reference(bundle, spiked, (12,), 16)
    assert spiked_cache["delta"][t0 // 2 + 1] * a_max > 300.0
    assert spiked_cache["t0"] == t0 and spiked_cache["chunk"] == cache["chunk"] == 16
    spiked_out, spiked_cache = slow_forward_cached(1, spiked, bundle, (12,), chunk=16)
    spiked_grads = slow_backward(1, None, bundle, (12,), cot, cache=spiked_cache)
    assert np.array_equal(spiked_out, out)
    for name, g in grads.items():
        assert np.array_equal(spiked_grads[name], g), name


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_history_names_layer_and_position(bad):
    bundle, history = horizon_case((4, 3, 2), 12, 40)
    _, cache = slow_forward_cached(1, history, bundle, (12,))
    pos = cache["t0"] // 2  # inside the prefix the horizon drops
    history[pos] = bad
    with pytest.raises(DomainError, match=f"layer 1: non-finite gradient history at position {pos} "):
        slow_forward_cached(1, history, bundle, (12,))


# Both chunk walks run inside one `hypernet._walk_buffer` scope: numpy's ufunc buffer
# at `tensor._UFUNC_BUFFER` values when a chunk's inner run d_inner * N reaches it
# (token_dim 16, expand 2, state_dim 8: 256), the caller's buffer below it
# (token_dim 4, expand 2, state_dim 3: 24).  The reference checks above run both.
WALK_DIMS = pytest.mark.parametrize("dims,scoped", [((16, 8, 2), True), ((4, 3, 2), False)],
                                    ids=["inner-256", "inner-24"])
CALLER_BUFFER = 4096


def walk_case(dims):
    """Pre-tail and tail chunks of 5 tokens, xi = 12, l = 5."""
    return o1_bundle(43, *dims), Rng(44).normals(60), Rng(45).normals((12,))


def numpy_state():
    return np.getbufsize(), np.geterr()


@WALK_DIMS
def test_walk_keeps_the_callers_numpy_state(dims, scoped, monkeypatch):
    """Inside the walks the buffer is `_UFUNC_BUFFER` or the caller's; after slow fwd and
    bwd return, or raise from inside a walk, the caller's buffer and error settings hold."""
    bundle, history, cot = walk_case(dims)
    seen = []
    for name in ("linear_recurrence", "linear_recurrence_backward"):
        def recorded(*args, _f=getattr(hypernet, name)):
            seen.append(np.getbufsize())
            return _f(*args)
        monkeypatch.setattr(hypernet, name, recorded)
    with np.errstate(all="ignore"):
        np.setbufsize(CALLER_BUFFER)
        before = numpy_state()
        _, cache = slow_forward_cached(1, history, bundle, (12,), chunk=5)
        assert numpy_state() == before
        slow_backward(1, None, bundle, (12,), cot, cache=cache)
        assert numpy_state() == before
        assert len(cache["walk"]) > 3 and len(seen) == 3 * len(cache["walk"])
        assert set(seen) == {tensor._UFUNC_BUFFER if scoped else CALLER_BUFFER}

        def fails(*args):
            raise RuntimeError("inside the walk")
        monkeypatch.setattr(hypernet, "linear_recurrence", fails)
        with pytest.raises(RuntimeError, match="inside the walk"):
            slow_forward_cached(1, history, bundle, (12,), chunk=5)
        assert numpy_state() == before
        with pytest.raises(RuntimeError, match="inside the walk"):
            slow_backward(1, None, bundle, (12,), cot, cache=cache)
        assert numpy_state() == before


@WALK_DIMS
def test_walk_bits_do_not_depend_on_the_callers_buffer(dims, scoped):
    """The output and every gradient, bit for bit, under caller buffers of 8192 (numpy's
    default), `_UFUNC_BUFFER` and 1 << 16 values."""
    bundle, history, cot = walk_case(dims)
    assert (bundle.slow.a_log.size >= tensor._UFUNC_BUFFER) == scoped
    runs = []
    for size in (8192, tensor._UFUNC_BUFFER, 1 << 16):
        with np.errstate():
            np.setbufsize(size)
            out, cache = slow_forward_cached(1, history, bundle, (12,), chunk=5)
            runs.append((out, slow_backward(1, None, bundle, (12,), cot, cache=cache)))
    out, grads = runs[0]
    for other_out, other_grads in runs[1:]:
        assert np.array_equal(other_out, out)
        assert other_grads.keys() == grads.keys()
        for name, g in grads.items():
            assert np.array_equal(other_grads[name], g), name
