import numpy as np
import pytest

from fsglab.errors import DimensionError, EmptyHistoryError
from fsglab.hypernet import (
    FastNetParams,
    HyperNetBundle,
    fast_backward,
    fast_forward,
    load_arrays,
    save_arrays,
    slow_backward,
    slow_forward,
    slow_forward_cached,
)
from fsglab.rng import Rng
from fsglab.tensor import finite_diff_check


def o1_bundle(seed, n_layers=3, d=4, n_state=3, expand=2, slow_kind="selective-ssm"):
    """Bundle with O(1)-scale parameters so coordinatewise FD is well conditioned."""
    bundle = HyperNetBundle.init(Rng(seed), n_layers=n_layers, fast_kind="off",
                                 slow_kind=slow_kind, fast_hidden=1, d=d,
                                 n_state=n_state, expand=expand)
    r = Rng(seed ^ 0x5EED)
    for name, arr in bundle.named_params():
        if name == "slow.a_log":
            arr[...] = r.uniforms(arr.shape) * 1.2 - 0.6
        else:
            arr[...] = 0.8 * r.normals(arr.shape)
    return bundle


class TestFastNet:
    def test_zero_at_origin(self):
        p = FastNetParams.init(Rng(0), hidden=16)
        out = fast_forward(np.zeros((2, 2)), np.zeros((2, 2)), p)
        assert np.max(np.abs(out)) < 1e-15

    def test_homogeneity(self):
        p = FastNetParams.init(Rng(1), hidden=8)
        one = fast_forward(np.array([[1.0]]), np.array([[0.0]]), p)
        two = fast_forward(np.array([[2.0]]), np.array([[0.0]]), p)
        assert abs(two[0, 0] - 2.0 * one[0, 0]) < 1e-12

    def test_matrix_chain_oracle(self):
        p = FastNetParams.init(Rng(2), hidden=8)
        rng = Rng(3)
        p.b1[...] = rng.normals(p.b1.shape)
        p.b2[...] = rng.normals(p.b2.shape)
        p.b3[...] = rng.normals(p.b3.shape)
        g = rng.normals((3, 2))
        wh = rng.normals((3, 2))
        pairs = np.stack([g.ravel(), wh.ravel()], axis=1)
        expect = ((pairs @ p.m1 + p.b1) @ p.m2 + p.b2) @ p.m3 + p.b3
        out = fast_forward(g, wh, p)
        assert np.allclose(out, expect[:, 0].reshape(3, 2), atol=1e-14)

    def test_exact_linearity(self):
        p = FastNetParams.init(Rng(4), hidden=12)  # bias-free init
        rng = Rng(5)
        u, v = rng.normals((3, 3)), rng.normals((3, 3))
        uh, vh = rng.normals((3, 3)), rng.normals((3, 3))
        lhs = fast_forward(2.0 * u + 3.0 * v, 2.0 * uh + 3.0 * vh, p)
        rhs = 2.0 * fast_forward(u, uh, p) + 3.0 * fast_forward(v, vh, p)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_shape_mismatch(self):
        p = FastNetParams.init(Rng(0), hidden=4)
        with pytest.raises(DimensionError):
            fast_forward(np.zeros((2, 2)), np.zeros((2, 3)), p)


class TestFastBackward:
    def test_zero_cotangent(self):
        p = FastNetParams.init(Rng(0), hidden=8)
        grads, g_g, g_wh = fast_backward(np.ones((2, 2)), np.ones((2, 2)), p,
                                         np.zeros((2, 2)))
        assert all(not g.any() for g in grads.values())
        assert not g_g.any() and not g_wh.any()

    def test_scalar_collapse(self):
        p = FastNetParams.init(Rng(1), hidden=6)
        a = (p.m1 @ p.m2 @ p.m3)[0, 0]  # coefficient of g in the collapsed map
        cot = np.array([[2.0]])
        _, g_g, _ = fast_backward(np.array([[3.0]]), np.array([[0.0]]), p, cot)
        assert abs(g_g[0, 0] - a * 2.0) < 1e-12

    @pytest.mark.parametrize("hidden", [1, 5, 100])
    def test_matches_hidden_width_form(self, hidden):
        # the O(P) collapse against the stack evaluated H wide
        p = FastNetParams.init(Rng(hidden), hidden=hidden)
        rng = Rng(200 + hidden)
        for _, arr in p.named_arrays():
            arr[...] = rng.normals(arr.shape) / np.sqrt(hidden)
        g, wh, cot = rng.normals((7, 9)), rng.normals((7, 9)), rng.normals((7, 9))
        pairs = np.stack([g.ravel(), wh.ravel()], axis=1)
        h1 = pairs @ p.m1 + p.b1
        h2 = h1 @ p.m2 + p.b2
        out = h2 @ p.m3 + p.b3
        co = cot.reshape(-1, 1)
        g_h2 = co @ p.m3.T
        g_h1 = g_h2 @ p.m2.T
        g_pairs = g_h1 @ p.m1.T
        expect = {
            "fast.m3": h2.T @ co, "fast.b3": co.sum(axis=0),
            "fast.m2": h1.T @ g_h2, "fast.b2": g_h2.sum(axis=0),
            "fast.m1": pairs.T @ g_h1, "fast.b1": g_h1.sum(axis=0),
        }
        grads, g_g, g_wh = fast_backward(g, wh, p, cot)
        got = dict(grads, out=fast_forward(g, wh, p), g_g=g_g, g_wh=g_wh)
        expect.update(out=out[:, 0].reshape(g.shape), g_g=g_pairs[:, 0].reshape(g.shape),
                      g_wh=g_pairs[:, 1].reshape(g.shape))
        assert sorted(grads) == sorted(name for name, _ in p.named_arrays())
        for name, ref in expect.items():
            assert got[name].shape == ref.shape, name
            assert np.max(np.abs(got[name] - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_differences_all_params(self, seed):
        p = FastNetParams.init(Rng(seed), hidden=5)
        rng = Rng(100 + seed)
        p.b1[...] = 0.3 * rng.normals(p.b1.shape)
        p.b2[...] = 0.3 * rng.normals(p.b2.shape)
        g = rng.normals((2, 3))
        wh = rng.normals((2, 3))
        cot = rng.normals((2, 3))
        grads, g_g, g_wh = fast_backward(g, wh, p, cot)
        arrays = dict(p.named_arrays())
        for name in arrays:
            def f(val, name=name):
                saved = arrays[name].copy()
                arrays[name][...] = val
                try:
                    return float(np.sum(cot * fast_forward(g, wh, p)))
                finally:
                    arrays[name][...] = saved
            assert finite_diff_check(f, arrays[name], grads[name]) < 1e-5
        assert finite_diff_check(
            lambda v: float(np.sum(cot * fast_forward(v, wh, p))), g, g_g) < 1e-5
        assert finite_diff_check(
            lambda v: float(np.sum(cot * fast_forward(g, v, p))), wh, g_wh) < 1e-5


class TestSlowForward:
    def test_output_shape_for_conv_layer(self):
        # 4x3x3x3 conv gradients with 6 stored steps: 649-token sequence in,
        # gradient-shaped tensor out
        bundle = HyperNetBundle.init(Rng(1), n_layers=2, fast_kind="off",
                                     slow_kind="selective-ssm", fast_hidden=1, d=4,
                                     n_state=2, expand=2)
        xi = 4 * 3 * 3 * 3
        hist = Rng(2).normals(xi * 6)
        out = slow_forward(0, hist, bundle, (4, 3, 3, 3))
        assert out.shape == (4, 3, 3, 3)

    def test_zero_history_zero_lre_gives_zero(self):
        bundle = o1_bundle(13)
        bundle.lre[1] = 0.0
        bundle.slow.b_b[...] = 0.0
        bundle.slow.b_c[...] = 0.0
        bundle.slow.b_delta[...] = 0.0
        out = slow_forward(1, np.zeros(8), bundle, (2, 2))
        assert np.max(np.abs(out)) < 1e-15

    def test_hand_unrolled_pipeline_oracle(self):
        # xi=2, m=1, d=2: replicate token build -> block -> slice -> head by hand
        bundle = o1_bundle(14, d=2, n_state=2, expand=1)
        p = bundle.slow
        hist = np.array([0.7, -0.4])
        tokens = np.empty((3, 2))
        tokens[0] = bundle.lre[1]
        tokens[1:] = hist[:, None] * bundle.w_a
        u = tokens @ p.w_in
        z = tokens @ p.w_gate
        braw = u @ p.w_b + p.b_b
        craw = u @ p.w_c + p.b_c
        delta = np.logaddexp(0.0, u @ p.w_delta + p.b_delta)
        a = -np.exp(p.a_log)
        h = np.zeros((p.d_inner, p.n_state))
        ys = []
        for t in range(3):
            ld = delta[t, 0] * a
            a_bar = np.exp(ld)
            b_bar = (np.expm1(ld) / ld) * delta[t, 0] * braw[t][None, :]
            h = a_bar * h + b_bar * u[t][:, None]
            ys.append(h @ craw[t])
        y = np.stack(ys)
        gated = y * (1.0 / (1.0 + np.exp(-z)))
        out_seq = gated @ p.w_out + tokens
        expect = (out_seq[-2:] @ bundle.w_head)[:, 0].reshape(2, 1)
        got = slow_forward(1, hist, bundle, (2, 1))
        assert np.allclose(got, expect, atol=1e-12)

    def test_empty_history(self):
        bundle = o1_bundle(15)
        with pytest.raises(EmptyHistoryError):
            slow_forward(0, np.zeros(0), bundle, (1, 1))

    def test_layer_index_out_of_range(self):
        bundle = o1_bundle(16, n_layers=2)
        with pytest.raises(IndexError):
            slow_forward(5, np.zeros(4), bundle, (2, 2))

    def test_history_not_multiple_of_xi(self):
        bundle = o1_bundle(17)
        with pytest.raises(DimensionError):
            slow_forward(0, np.zeros(5), bundle, (2, 2))


class TestSlowBackward:
    def test_zero_cotangent(self):
        bundle = o1_bundle(18)
        hist = Rng(1).normals(8)
        grads = slow_backward(0, hist, bundle, (2, 2), np.zeros((2, 2)))
        assert all(np.max(np.abs(g)) == 0.0 for g in grads.values())

    def test_lre_gradient_only_on_requested_row(self):
        bundle = o1_bundle(19, n_layers=4)
        hist = Rng(2).normals(8)
        grads = slow_backward(2, hist, bundle, (2, 2), np.ones((2, 2)))
        nonzero_rows = [i for i in range(4) if np.any(grads["lre"][i] != 0.0)]
        assert nonzero_rows == [2]

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_differences_all_groups(self, seed):
        bundle = o1_bundle(20 + seed)
        rng = Rng(50 + seed)
        hist = rng.normals(12) * 0.5
        cot = rng.normals((2, 3))
        out, cache = slow_forward_cached(1, hist, bundle, (2, 3), chunk=5)
        grads = slow_backward(1, hist, bundle, (2, 3), cot, cache=cache)
        for name, arr in bundle.named_params():
            def f(val, arr=arr):
                saved = arr.copy()
                arr[...] = val
                try:
                    return float(np.sum(cot * slow_forward(1, hist, bundle, (2, 3),
                                                           chunk=5)))
                finally:
                    arr[...] = saved
            assert finite_diff_check(f, arr, grads[name]) < 1e-4, name

    def test_cotangent_shape_check(self):
        bundle = o1_bundle(30)
        with pytest.raises(DimensionError):
            slow_backward(0, Rng(0).normals(8), bundle, (2, 2), np.zeros((3, 3)))


class TestLstmSlowNet:
    def test_zero_params_zero_input_fixed_point(self):
        bundle = HyperNetBundle.init(Rng(31), n_layers=2, fast_kind="off",
                                     slow_kind="lstm", fast_hidden=1, d=3, n_state=1,
                                     expand=1)
        for _, arr in bundle.named_params():
            arr[...] = 0.0
        out = slow_forward(0, np.zeros(6), bundle, (3, 2))
        assert np.max(np.abs(out)) == 0.0

    def test_single_step_hand_gates(self):
        bundle = o1_bundle(32, d=2, slow_kind="lstm")
        p = bundle.slow
        hist = np.array([0.9])
        tokens = np.empty((2, 2))
        tokens[0] = bundle.lre[1]
        tokens[1] = hist[0] * bundle.w_a[0]
        h = np.zeros(2)
        c = np.zeros(2)
        outs = []
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        for t in range(2):
            gsum = tokens[t] @ p.w_x + h @ p.w_h + p.b
            i, f = sig(gsum[:2]), sig(gsum[2:4])
            g, o = np.tanh(gsum[4:6]), sig(gsum[6:])
            c = f * c + i * g
            h = o * np.tanh(c)
            outs.append(h.copy())
        expect = (np.stack(outs)[-1:] @ bundle.w_head)[:, 0].reshape(1, 1)
        got = slow_forward(1, hist, bundle, (1, 1))
        assert np.allclose(got, expect, atol=1e-13)

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_differences(self, seed):
        bundle = o1_bundle(40 + seed, d=3, slow_kind="lstm")
        rng = Rng(60 + seed)
        hist = rng.normals(8) * 0.5
        cot = rng.normals((2, 2))
        grads = slow_backward(1, hist, bundle, (2, 2), cot)
        for name, arr in bundle.named_params():
            def f(val, arr=arr):
                saved = arr.copy()
                arr[...] = val
                try:
                    return float(np.sum(cot * slow_forward(1, hist, bundle, (2, 2))))
                finally:
                    arr[...] = saved
            assert finite_diff_check(f, arr, grads[name]) < 1e-4, name


class TestSharingAndCheckpoint:
    def test_same_bundle_serves_every_layer(self):
        bundle = o1_bundle(70, n_layers=3)
        hist = Rng(3).normals(8)
        outs = [slow_forward(i, hist, bundle, (2, 2)) for i in range(3)]
        # different layer embeddings give different outputs from shared weights
        assert not np.allclose(outs[0], outs[1])
        assert not np.allclose(outs[1], outs[2])

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        bundle = HyperNetBundle.init(Rng(71), n_layers=2, fast_kind="mlp",
                                     slow_kind="selective-ssm", d=4, n_state=2,
                                     expand=2, fast_hidden=7)
        arrays = dict(bundle.named_params())
        path = tmp_path / "params.npz"
        save_arrays(path, arrays)
        loaded = load_arrays(path)
        assert sorted(loaded) == sorted(arrays)
        for name, arr in arrays.items():
            assert np.array_equal(loaded[name], arr)
            assert loaded[name].dtype == arr.dtype
