import tracemalloc

import numpy as np
import pytest

from fsglab import tensor
from fsglab.errors import DimensionError, DomainError, EvaluationError
from fsglab.rng import Rng
from fsglab.tensor import (
    conv2d_backward,
    conv2d_forward,
    finite_diff_check,
    matmul,
    orthogonal_init,
    relu_backward,
    relu_forward,
    softmax_cross_entropy,
)


def naive_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def naive_conv2d(x, w, stride, pad):
    batch, c_in, height, width = x.shape
    c_out, _, kh, kw = w.shape
    h_out = (height + 2 * pad - kh) // stride + 1
    w_out = (width + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((batch, c_out, h_out, w_out))
    for b in range(batch):
        for co in range(c_out):
            for i in range(h_out):
                for j in range(w_out):
                    acc = 0.0
                    for ci in range(c_in):
                        for p in range(kh):
                            for q in range(kw):
                                acc += xp[b, ci, i * stride + p, j * stride + q] * w[co, ci, p, q]
                    out[b, co, i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(np.eye(2), m), m)

    def test_by_hand(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0

    def test_matches_triple_loop_exactly(self):
        rng = Rng(42)
        a = rng.normals((4, 5))
        b = rng.normals((5, 3))
        assert np.array_equal(matmul(a, b), naive_matmul(a, b))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))


class TestConv2d:
    def test_scalar_kernel(self):
        x = np.ones((1, 1, 3, 3))
        w = np.full((1, 1, 1, 1), 2.0)
        assert np.array_equal(conv2d_forward(x, w), np.full((1, 1, 3, 3), 2.0))

    def test_impulse_response_contains_kernel(self):
        # delta input with full padding reproduces the correlation-flipped kernel
        x = np.zeros((1, 1, 5, 5))
        x[0, 0, 2, 2] = 1.0
        rng = Rng(3)
        w = rng.normals((1, 1, 3, 3))
        out = conv2d_forward(x, w, stride=1, pad=2)
        flipped = w[0, 0, ::-1, ::-1]
        assert np.allclose(out[0, 0, 2:5, 2:5], flipped)

    def test_matches_naive_loop_exactly(self):
        rng = Rng(7)
        x = rng.normals((2, 3, 5, 5))
        w = rng.normals((4, 3, 3, 3))
        for stride, pad in ((1, 0), (1, 1), (2, 1)):
            assert np.array_equal(
                conv2d_forward(x, w, stride, pad), naive_conv2d(x, w, stride, pad)
            )

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            conv2d_forward(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 5, 5)))

    def test_bad_stride(self):
        with pytest.raises(DomainError):
            conv2d_forward(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 2, 2)), stride=0)


class TestConv2dBackward:
    def test_zero_cotangent(self):
        x = np.ones((1, 2, 4, 4))
        w = np.ones((3, 2, 2, 2))
        g_out = np.zeros_like(conv2d_forward(x, w))
        g_x, g_w = conv2d_backward(x, w, g_out)
        assert not g_x.any() and not g_w.any()

    def test_scalar_product_rule(self):
        x = np.full((1, 1, 1, 1), 3.0)
        w = np.full((1, 1, 1, 1), 2.0)
        g_x, g_w = conv2d_backward(x, w, np.ones((1, 1, 1, 1)))
        assert g_x[0, 0, 0, 0] == 2.0
        assert g_w[0, 0, 0, 0] == 3.0

    def test_cotangent_shape_check(self):
        with pytest.raises(DimensionError):
            conv2d_backward(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 2, 2)),
                            np.zeros((1, 1, 9, 9)))

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_differences(self, seed):
        rng = Rng(100 + seed)
        x = rng.normals((1, 2, 4, 4))
        w = rng.normals((2, 2, 3, 3))
        g_out = rng.normals(conv2d_forward(x, w, 1, 1).shape)
        g_x, g_w = conv2d_backward(x, w, g_out, 1, 1)
        err_x = finite_diff_check(
            lambda p: float(np.sum(g_out * conv2d_forward(p, w, 1, 1))), x, g_x)
        err_w = finite_diff_check(
            lambda p: float(np.sum(g_out * conv2d_forward(x, p, 1, 1))), w, g_w)
        assert err_x < 1e-6
        assert err_w < 1e-6


class TestFiniteDiffCheck:
    def test_quadratic(self):
        err = finite_diff_check(lambda x: float(x[0] ** 2), np.array([3.0]),
                                np.array([6.0]))
        assert err < 1e-8

    def test_constant(self):
        err = finite_diff_check(lambda x: 5.0, np.array([1.0, 2.0]),
                                np.zeros(2))
        assert err == 0.0

    def test_dense_layer_loss(self):
        rng = Rng(5)
        w = rng.normals((3, 2))
        x = rng.normals((4, 3))
        cot = rng.normals((4, 2))
        g_w = np.einsum("bi,bo->io", x, cot)
        err = finite_diff_check(
            lambda p: float(np.sum(cot * matmul(x, p))), w, g_w)
        assert err < 1e-5

    def test_nonfinite_raises(self):
        with pytest.raises(EvaluationError):
            finite_diff_check(lambda x: float("nan"), np.array([1.0]), np.zeros(1))

    def test_bad_h(self):
        with pytest.raises(DomainError):
            finite_diff_check(lambda x: 0.0, np.zeros(1), np.zeros(1), h=0.0)


class TestOrthogonalInit:
    def test_one_by_one_is_unit(self):
        for seed in range(8):
            m = orthogonal_init(1, 1, Rng(seed))
            assert m.shape == (1, 1)
            assert abs(abs(m[0, 0]) - 1.0) < 1e-12

    def test_square(self):
        m = orthogonal_init(100, 100, Rng(1))
        assert np.max(np.abs(m.T @ m - np.eye(100))) < 1e-8

    def test_tall(self):
        m = orthogonal_init(100, 2, Rng(2))
        assert np.max(np.abs(m.T @ m - np.eye(2))) < 1e-8

    def test_wide(self):
        m = orthogonal_init(2, 100, Rng(3))
        assert np.max(np.abs(m @ m.T - np.eye(2))) < 1e-8

    def test_zero_dims_rejected(self):
        with pytest.raises(DomainError):
            orthogonal_init(0, 3, Rng(0))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = Rng(777).normals((50, 3))
        b = Rng(777).normals((50, 3))
        assert np.array_equal(a, b)

    def test_orthogonal_bit_identical(self):
        assert np.array_equal(orthogonal_init(20, 10, Rng(5)),
                              orthogonal_init(20, 10, Rng(5)))

    def test_derive_is_order_independent(self):
        root = Rng(9)
        root.normal()  # consuming the parent stream must not shift children
        a = root.derive("x").normals(4)
        b = Rng(9).derive("x").normals(4)
        assert np.array_equal(a, b)


class TestLayerRules:
    def test_relu_backward_finite_diff(self):
        rng = Rng(11)
        # keep inputs away from the kink
        x = rng.normals((4, 5))
        x[np.abs(x) < 0.1] = 0.5
        cot = rng.normals((4, 5))
        g = relu_backward(x, cot)
        err = finite_diff_check(
            lambda p: float(np.sum(cot * relu_forward(p))), x, g)
        assert err < 1e-5

    def test_cross_entropy_backward_finite_diff(self):
        rng = Rng(13)
        logits = rng.normals((6, 4))
        labels = np.array([0, 1, 2, 3, 0, 1])
        _, g, _ = softmax_cross_entropy(logits, labels)
        err = finite_diff_check(
            lambda p: softmax_cross_entropy(p, labels)[0], logits, g)
        assert err < 1e-5

    def test_cross_entropy_value(self):
        logits = np.zeros((2, 3))
        loss, _, probs = softmax_cross_entropy(logits, np.array([0, 2]))
        assert abs(loss - np.log(3.0)) < 1e-12
        assert np.allclose(probs, 1.0 / 3.0)

    def test_cross_entropy_shape_error(self):
        with pytest.raises(DimensionError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 1, 2]))


def naive_conv2d_backward(x, w, g_out, stride, pad):
    """Gradients of sum(g_out * conv2d) by the 7-loop chain rule."""
    batch, c_in, height, width = x.shape
    c_out, _, kh, kw = w.shape
    h_out, w_out = g_out.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    g_xp = np.zeros_like(xp)
    g_w = np.zeros_like(w)
    for b in range(batch):
        for co in range(c_out):
            for i in range(h_out):
                for j in range(w_out):
                    g = g_out[b, co, i, j]
                    for ci in range(c_in):
                        for p in range(kh):
                            for q in range(kw):
                                r, c = i * stride + p, j * stride + q
                                g_w[co, ci, p, q] += g * xp[b, ci, r, c]
                                g_xp[b, ci, r, c] += g * w[co, ci, p, q]
    return g_xp[:, :, pad : pad + height, pad : pad + width], g_w


def wide_normals(rng, shape):
    """Normals scaled over ~20 binary orders, so additions really round."""
    return rng.normals(shape) * np.exp2(np.round(rng.normals(shape) * 6.0))


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.array_equal(got, want, equal_nan=True)
    finite = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[finite]), np.signbit(want[finite]))


class TestMatmulBlocking:
    # (m, k, n, scratch): scratch=None keeps the module's scratch size; a small
    # one forces several k-blocks (and row tiles) on small operands.
    CASES = [
        (3, 5, 4, None),     # one k-block
        (4, 37, 5, 16),      # k-blocks of 3, the last one ragged (37 = 12*3 + 1)
        (2, 300, 1000, None),  # blocks of _K_BLOCK k over single-row tiles, ragged
        (9, 23, 3, 16),      # m > n: the transpose is accumulated
        (6, 11, 6, 16),      # m == n
        (1, 17, 6, 16),      # m = 1
        (6, 17, 1, 16),      # n = 1 (flipped to one accumulator row)
        (1, 40, 1, None),    # m = n = 1: a dot product, one k at a time
        (5, 1, 7, 16),       # k = 1
    ]

    @pytest.mark.parametrize("m,k,n,scratch", CASES)
    def test_matches_triple_loop_bits(self, monkeypatch, m, k, n, scratch):
        if scratch is not None:
            monkeypatch.setattr(tensor, "_SCRATCH", scratch)
        rng = Rng(1000 + m * 31 + k * 7 + n)
        a, b = wide_normals(rng, (m, k)), wide_normals(rng, (k, n))
        assert_same_bits(matmul(a, b), naive_matmul(a, b))

    @pytest.mark.parametrize("m,n", [(3, 4), (4, 3)])
    def test_empty_contraction_gives_zeros(self, m, n):
        out = matmul(np.zeros((m, 0)), np.zeros((0, n)))
        assert_same_bits(out, np.zeros((m, n)))

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2)])
    def test_negative_zero_products_sum_to_positive_zero(self, monkeypatch, m, n):
        monkeypatch.setattr(tensor, "_SCRATCH", 8)
        out = matmul(np.full((m, 5), -0.0), np.ones((5, n)))
        assert not np.signbit(out).any()
        assert_same_bits(out, naive_matmul(np.full((m, 5), -0.0), np.ones((5, n))))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("m,n", [(4, 6), (6, 4)])
    def test_nonfinite_entries(self, monkeypatch, m, n):
        monkeypatch.setattr(tensor, "_SCRATCH", 16)
        rng = Rng(77 + m)
        a, b = rng.normals((m, 9)), rng.normals((9, n))
        a[0, 2], a[1, 4], a[2, 0] = np.inf, -np.inf, np.nan
        b[3, 1], b[5, 0] = np.inf, 0.0
        a[3, 5] = 1e308
        b[5, 2] = 1e308  # overflows to inf
        assert_same_bits(matmul(a, b), naive_matmul(a, b))


class TestConvTiling:
    # (x shape, w shape, stride, pad, scratch): the scratch size gives a batch
    # tile that does not divide the batch (or one image per tile).
    CASES = [
        ((1, 1, 5, 5), (2, 1, 3, 3), 1, 0, None),   # batch 1, c_in 1
        ((3, 3, 5, 7), (2, 3, 3, 3), 1, 1, 400),    # H != W, c_in 3; tiles 2 + 1
        ((5, 1, 6, 4), (3, 1, 2, 2), 2, 1, 100),    # stride 2 with pad; tiles 2 + 2 + 1
        ((4, 3, 7, 7), (2, 3, 3, 3), 2, 1, 1),      # stride 2 with pad, c_in 3; one image a tile
        ((7, 1, 4, 6), (2, 1, 3, 3), 1, 1, None),   # whole batch in one tile
    ]

    @pytest.mark.parametrize("x_shape,w_shape,stride,pad,scratch", CASES)
    def test_forward_matches_naive_bits(self, monkeypatch, x_shape, w_shape, stride, pad,
                                        scratch):
        if scratch is not None:
            monkeypatch.setattr(tensor, "_SCRATCH", scratch)
        rng = Rng(sum(x_shape) * 13 + stride)
        x, w = wide_normals(rng, x_shape), wide_normals(rng, w_shape)
        assert_same_bits(conv2d_forward(x, w, stride, pad), naive_conv2d(x, w, stride, pad))

    def test_negative_zero_products_sum_to_positive_zero(self):
        x = np.full((2, 2, 4, 5), -0.0)
        w = np.ones((3, 2, 3, 3))
        out = conv2d_forward(x, w, 1, 1)
        assert not np.signbit(out).any()
        assert_same_bits(out, naive_conv2d(x, w, 1, 1))

    @pytest.mark.parametrize("x_shape,w_shape,stride,pad,scratch", CASES)
    def test_backward_matches_naive(self, monkeypatch, x_shape, w_shape, stride, pad,
                                    scratch):
        if scratch is not None:
            monkeypatch.setattr(tensor, "_SCRATCH", scratch)
        rng = Rng(sum(x_shape) * 17 + pad)
        x, w = rng.normals(x_shape), rng.normals(w_shape)
        g_out = rng.normals(naive_conv2d(x, w, stride, pad).shape)
        for got, want in zip(conv2d_backward(x, w, g_out, stride, pad),
                             naive_conv2d_backward(x, w, g_out, stride, pad)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_backward_checks_geometry_like_forward(self):
        x, w = np.zeros((2, 3, 5, 5)), np.zeros((4, 3, 3, 3))
        g_out = np.zeros((2, 4, 3, 3))
        with pytest.raises(DimensionError, match="channel mismatch"):
            conv2d_backward(x, np.zeros((4, 2, 3, 3)), g_out)
        with pytest.raises(DomainError, match="stride"):
            conv2d_backward(x, w, g_out, stride=0)
        with pytest.raises(DimensionError, match="4-D"):
            conv2d_backward(np.zeros((3, 5, 5)), w, g_out)
        for kernel in (conv2d_forward, lambda x, w, pad: conv2d_backward(x, w, g_out, pad=pad)):
            with pytest.raises(DomainError, match="pad"):
                kernel(x, w, pad=-1)


# tracemalloc peaks of one call at the conv-idx shapes, x (64, 8, 16, 16)
# with w (8, 8, 3, 3) and pad 1, for the kernels that padded the whole batch
# (numpy 2.4).  Forward: the padded input (64*8*18*18*8 B = 1,327,104), the
# output (1,048,576) and one tap's output-sized product (1,048,576), plus
# about 133 KB of np.pad and ufunc buffering.  Backward: the padded input and
# its gradient (2 * 1,327,104) and one output-sized einsum result
# (1,048,576), plus about 138 KB of the same.  The tiled kernels keep
# tile-sized scratch instead and must not peak higher.
CONV_IDX_FORWARD_PEAK = 3_557_568
CONV_IDX_BACKWARD_PEAK = 3_841_214


def traced_peak(fn):
    fn()  # warm numpy's caches before measuring
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_conv_peaks_at_conv_idx_shapes():
    rng = Rng(5)
    x, w = rng.normals((64, 8, 16, 16)), rng.normals((8, 8, 3, 3))
    g_out = rng.normals((64, 8, 16, 16))
    assert traced_peak(lambda: conv2d_forward(x, w, 1, 1)) <= CONV_IDX_FORWARD_PEAK
    assert traced_peak(lambda: conv2d_backward(x, w, g_out, 1, 1)) <= CONV_IDX_BACKWARD_PEAK
