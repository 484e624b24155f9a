import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fsglab import tensor
from fsglab.errors import DimensionError, DomainError, EvaluationError
from fsglab.rng import Rng
from fsglab.tensor import (
    conv2d_backward,
    conv2d_forward,
    finite_diff,
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

    @pytest.mark.parametrize("analytic", [[np.nan, np.nan], [6.0, np.nan], [np.inf, 4.0]])
    def test_nonfinite_analytic_raises(self, analytic):
        with pytest.raises(EvaluationError, match="analytic"):
            finite_diff_check(lambda x: float(np.sum(x**2)), np.array([3.0, 2.0]),
                              np.array(analytic))


class TestFiniteDiff:
    def test_point_restored_bit_for_bit(self):
        # -0.0 and 1e-17 do not survive x + h - h: the coordinate is put back, not undone
        point = np.array([[-0.0, 1e-17], [1.0 / 3.0, -7.25]])
        before = point.tobytes()
        seen = []
        fd = finite_diff(lambda x: seen.append(x is point) or float(np.sum(x**2)), point)
        assert point.tobytes() == before and np.signbit(point[0, 0])
        assert all(seen) and len(seen) == 8
        assert np.allclose(fd, 2.0 * point, atol=1e-8)

    def test_live_parameter_through_closure(self):
        rng = Rng(9)
        w = rng.normals((3, 2))
        x = rng.normals((4, 3))
        cot = rng.normals((4, 2))
        fd = finite_diff(lambda _: float(np.sum(cot * matmul(x, w))), w)
        assert np.max(np.abs(fd - np.einsum("bi,bo->io", x, cot))) < 1e-8

    def test_bad_h(self):
        for h in (0.0, -1e-6):
            with pytest.raises(DomainError):
                finite_diff(lambda x: 0.0, np.zeros(1), h=h)

    def test_point_restored_when_f_raises(self):
        point = np.array([-0.0, 2.5])
        before = point.tobytes()
        calls = []

        def f(x):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("probe failed")
            return float(np.sum(x))

        with pytest.raises(RuntimeError, match="probe failed"):
            finite_diff(f, point)
        assert point.tobytes() == before

    @pytest.mark.parametrize("point", [np.array([1.0, 2.0], dtype=np.float32),
                                       np.array([1, 2]), [1.0, 2.0]])
    def test_point_that_would_be_copied_rejected(self, point):
        # a converted copy would hide the moves from f reading the caller's array
        with pytest.raises(DomainError, match="float64"):
            finite_diff(lambda _: float(np.sum(point)), point)
        with pytest.raises(DomainError, match="float64"):
            finite_diff_check(lambda _: float(np.sum(point)), point, np.ones(2))

    def test_nonfinite_f_names_coordinate(self):
        with pytest.raises(EvaluationError, match="coordinate 1"):
            finite_diff(lambda x: x[0] if x[1] == 1.0 else np.nan, np.array([2.0, 1.0]))


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

    def test_array_draws_are_the_scalar_stream(self):
        # shape 0 is empty and takes no draw, shape () takes one
        for shape, size in (((3, 5), 15), (0, 0), ((), 1)):
            for draws, draw in (("normals", "normal"), ("uniforms", "uniform")):
                rng, ref = Rng(31), Rng(31)
                got = getattr(rng, draws)(shape)
                want = [getattr(ref, draw)() for _ in range(size)]
                assert got.shape == np.empty(shape).shape
                assert got.tobytes() == np.array(want).tobytes() and rng.state == ref.state
                assert rng.normal() == ref.normal()  # a cached Box-Muller spare included

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

    @pytest.mark.parametrize("labels", [[0, 3], [-1, 0]])
    def test_cross_entropy_label_outside_logits(self, labels):
        with pytest.raises(DimensionError, match=r"labels must lie in \[0, 3\)"):
            softmax_cross_entropy(np.zeros((2, 3)), np.array(labels))


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


def ascending_k_matmul(a, b):
    """The naive loop's rounding sequence, vectorised over output elements:
    every element starts at +0.0 and adds one rounded product per k, in order."""
    acc = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        acc = acc + a[:, k : k + 1] * b[k]
    return acc


class TestMatmulBenchShapes:
    # (m, k, n) of the benchmark's forward products: slow-wide's 800-row
    # batch through its 64-wide stack, conv-idx's 2048-wide dense head on
    # batches of 64 and 256.  (64, 10, 2048) was the head's input gradient,
    # which now runs on np.matmul; it stays as a short, wide product.  Their
    # inner runs straddle numpy's default ufunc buffer (8192), below which
    # the unscoped kernel took the buffered path.
    SHAPES = [(800, 64, 64), (800, 2, 64), (800, 64, 2),
              (64, 2048, 10), (64, 10, 2048), (256, 2048, 10)]

    @pytest.mark.parametrize("m,k,n", SHAPES)
    def test_matches_ascending_k_bits(self, m, k, n):
        rng = Rng(m + 3 * k + 7 * n)
        a, b = wide_normals(rng, (m, k)), wide_normals(rng, (k, n))
        assert_same_bits(matmul(a, b), ascending_k_matmul(a, b))


def numpy_state():
    return np.getbufsize(), np.geterr()


class TestUfuncBufferScope:
    """The kernels scope numpy's ufunc buffer down; the caller's buffer size
    and error settings must be the same after they return or raise."""

    CALLER = dict(divide="ignore", over="raise", under="warn", invalid="raise")

    def test_matmul_returns_to_the_callers_state(self):
        rng = Rng(8)
        with np.errstate(**self.CALLER):
            np.setbufsize(4096)
            before = numpy_state()
            matmul(rng.normals((40, 30)), rng.normals((30, 20)))
            assert numpy_state() == before

    def test_matmul_raises_under_the_callers_error_settings(self):
        a, b = np.array([[1.0, np.inf]]), np.array([[1.0], [0.0]])
        with np.errstate(**self.CALLER):
            np.setbufsize(4096)
            before = numpy_state()
            with pytest.raises(FloatingPointError):
                matmul(a, b)  # inf * 0
            assert numpy_state() == before

    def test_conv2d_backward_returns_to_the_callers_state(self):
        rng = Rng(9)
        x, w = rng.normals((3, 2, 6, 6)), rng.normals((4, 2, 3, 3))
        with np.errstate(**self.CALLER):
            np.setbufsize(4096)
            before = numpy_state()
            conv2d_backward(x, w, rng.normals((3, 4, 6, 6)), 1, 1)
            assert numpy_state() == before


def conv_weights(rng, shape, kind):
    """Conv weights of one kind: "general" wide normals, "unit" all +-1 (the
    add/subtract branch), or "mixed": +-1 except one output channel's weight
    at a middle tap, so one call runs both branches."""
    w = wide_normals(rng, shape)
    if kind == "general":
        return w
    signs = np.where(w < 0.0, -1.0, 1.0)
    if kind == "mixed":
        tap = (0, shape[1] // 2, shape[2] // 2, shape[3] // 2)
        signs[tap] = w[tap]
        assert abs(signs[tap]) != 1.0
    return signs


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

    @staticmethod
    def check_forward_bits(monkeypatch, x_shape, w_shape, stride, pad, scratch, kind):
        if scratch is not None:
            monkeypatch.setattr(tensor, "_SCRATCH", scratch)
        rng = Rng(sum(x_shape) * 13 + stride)
        x, w = wide_normals(rng, x_shape), conv_weights(rng, w_shape, kind)
        assert_same_bits(conv2d_forward(x, w, stride, pad), naive_conv2d(x, w, stride, pad))

    @pytest.mark.parametrize("x_shape,w_shape,stride,pad,scratch", CASES)
    def test_forward_matches_naive_bits(self, monkeypatch, x_shape, w_shape, stride, pad,
                                        scratch):
        self.check_forward_bits(monkeypatch, x_shape, w_shape, stride, pad, scratch, "general")

    @pytest.mark.parametrize("kind", ["unit", "mixed"])
    @pytest.mark.parametrize("x_shape,w_shape,stride,pad,scratch", CASES)
    def test_unit_tap_forward_matches_naive_bits(self, monkeypatch, x_shape, w_shape, stride,
                                                 pad, scratch, kind):
        self.check_forward_bits(monkeypatch, x_shape, w_shape, stride, pad, scratch, kind)

    # the flat-plane layout's corners, in the CASES format
    GEOMETRY = [
        ((3, 2, 7, 8), (2, 2, 2, 2), 3, 1, 350),    # stride 3 > kernel 2; tiles 2 + 1
        # stride 2, pad 2, H != W, (H + pad)(W + pad) = 63 odd: the stride phases
        # hold 3 or 2 of x's rows and 4 or 3 of its columns
        ((3, 2, 5, 7), (3, 2, 4, 4), 2, 2, 300),
        ((3, 2, 4, 4), (2, 2, 6, 6), 1, 1, None),   # kernel spans the padded input: 1 x 1
        ((4, 3, 6, 5), (1, 3, 3, 3), 1, 1, 200),    # one output channel
        ((2, 1, 4, 4), (2, 1, 2, 2), 1, 3, None),   # pad 3 >= kernel: W_out 9 > W + pad
        # C_out 6 > C_in * stride**2 = 4 sizes the backward's tile: 2 + 2 + 1
        # images, where the forward takes 3 + 2
        ((5, 1, 7, 6), (6, 1, 3, 3), 2, 1, 240),
    ]

    @pytest.mark.parametrize("kind", ["general", "unit", "mixed"])
    @pytest.mark.parametrize("x_shape,w_shape,stride,pad,scratch", GEOMETRY)
    def test_plane_geometry_matches_naive_bits(self, monkeypatch, x_shape, w_shape, stride,
                                               pad, scratch, kind):
        self.check_forward_bits(monkeypatch, x_shape, w_shape, stride, pad, scratch, kind)

    def test_one_channel_mixing_every_kind_of_weight_matches_naive_bits(self):
        rng = Rng(23)
        x = wide_normals(rng, (3, 2, 5, 6))
        x[0, 0, :2] = -0.0
        w = wide_normals(rng, (1, 2, 3, 3))
        w.flat[:6] = [1.0, -1.0, 0.0, -0.0, 1.0, -1.0]
        for stride, pad in ((1, 1), (2, 0), (2, 1)):
            assert_same_bits(conv2d_forward(x, w, stride, pad), naive_conv2d(x, w, stride, pad))

    def test_no_output_channels_gives_an_empty_output(self):
        out = conv2d_forward(np.ones((3, 2, 5, 6)), np.ones((0, 2, 3, 3)), 2, 1)
        assert out.shape == (3, 0, 3, 3)

    @staticmethod
    def check_negative_zero_sums(w):
        x = np.full((2, 2, 4, 5), -0.0)
        out = conv2d_forward(x, w, 1, 1)
        assert not np.signbit(out).any()
        assert_same_bits(out, naive_conv2d(x, w, 1, 1))

    def test_negative_zero_products_sum_to_positive_zero(self):
        self.check_negative_zero_sums(np.ones((3, 2, 3, 3)))

    @pytest.mark.parametrize("signs", ["minus", "alternating"])
    def test_negative_zero_subtracted_sums_to_positive_zero(self, signs):
        w = -np.ones((3, 2, 3, 3))
        if signs == "alternating":
            w.flat[::2] = 1.0
        self.check_negative_zero_sums(w)

    @pytest.mark.parametrize("x_shape,w_shape,stride,pad,scratch", CASES + GEOMETRY)
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

    @pytest.mark.parametrize("x_shape,w_shape,stride,pad,scratch", CASES + GEOMETRY)
    def test_backward_without_input_gradient_keeps_weight_gradient_bits(
            self, monkeypatch, x_shape, w_shape, stride, pad, scratch):
        if scratch is not None:
            monkeypatch.setattr(tensor, "_SCRATCH", scratch)
        rng = Rng(sum(x_shape) * 19 + stride)
        x, w = rng.normals(x_shape), rng.normals(w_shape)
        g_out = rng.normals(conv2d_forward(x, w, stride, pad).shape)
        g_x, g_w = conv2d_backward(x, w, g_out, stride, pad, input_grad=False)
        assert g_x is None
        assert_same_bits(g_w, conv2d_backward(x, w, g_out, stride, pad)[1])

    def test_dropped_positions_raise_no_floating_point_error(self):
        # the plane position after x[0, 0, 0, 2] is dropped: it adds 1e308 + 1e308
        x = np.zeros((1, 1, 2, 3))
        x[0, 0, 0, 2] = x[0, 0, 1, 0] = 1e308
        w = np.ones((1, 1, 1, 2))
        with np.errstate(all="raise"):
            before = numpy_state()
            out = conv2d_forward(x, w, 1, 0)
            assert numpy_state() == before
        assert_same_bits(out, naive_conv2d(x, w, 1, 0))
        assert_same_bits(out, np.array([[[[0.0, 1e308], [1e308, 0.0]]]]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("x,w,g_x,g_w", [
        ([0.0, 0.0, 0.0, np.inf], [1.0, 1.0, 1.0], [1.0, 2.0, 2.0, 1.0], [0.0, 0.0, np.inf]),
        ([0.0, 0.0, 0.0, np.nan], [1.0, 1.0, 1.0], [1.0, 2.0, 2.0, 1.0], [0.0, 0.0, np.nan]),
        ([1.0, 1.0, 1.0, 1.0], [np.inf, 1.0, 1.0], [np.inf, np.inf, 2.0, 1.0], [2.0, 2.0, 2.0]),
    ], ids=["inf-pixel", "nan-pixel", "inf-weight"])
    def test_backward_non_finite_reached_only_by_dropped_positions_gives_naive(self, x, w,
                                                                              g_x, g_w):
        # taps 0 and 1 reach pixel 3 only from the row's dropped positions 3
        # and 2, and tap 0 reaches pixels 2 and 3 only from them too
        x, w = np.array([[[x]]]), np.array([[[w]]])
        g_out = np.ones((1, 1, 1, 2))
        got = conv2d_backward(x, w, g_out, 1, 0)
        for a, b in zip(got, naive_conv2d_backward(x, w, g_out, 1, 0)):
            assert_same_bits(a, b)
        assert_same_bits(got[0], np.array([[[g_x]]]))
        assert_same_bits(got[1], np.array([[[g_w]]]))

    def test_an_output_that_overflows_raises_like_naive(self):
        x = np.zeros((2, 1, 2, 3))
        x[1, 0, 1, 1:] = 1e308
        w = np.ones((1, 1, 1, 2))
        with np.errstate(over="raise"):
            before = numpy_state()
            with pytest.raises(FloatingPointError, match="overflow"):
                naive_conv2d(x, w, 1, 0)
            with pytest.raises(FloatingPointError, match="overflow"):
                conv2d_forward(x, w, 1, 0)
            assert numpy_state() == before
        with pytest.warns(RuntimeWarning, match="overflow"):
            out = conv2d_forward(x, w, 1, 0)
        with np.errstate(over="ignore"):
            assert_same_bits(out, naive_conv2d(x, w, 1, 0))
        assert out[1, 0, 1, 1] == np.inf and np.isfinite(out).sum() == out.size - 1

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


# The same forward with every weight +-1 (the binarized conv of conv-idx).
# The kernel that copied each tap's window and skipped its (8, 25*16*16)
# product buffer here peaked at 2,036,801 B; the flat-plane kernel, whose
# product row is a c_in-th of its input planes, at 1,584,616 B.
CONV_IDX_UNIT_FORWARD_PEAK = 2_200_000


def test_conv_peaks_at_conv_idx_shapes():
    rng = Rng(5)
    x, w = rng.normals((64, 8, 16, 16)), rng.normals((8, 8, 3, 3))
    g_out = rng.normals((64, 8, 16, 16))
    assert traced_peak(lambda: conv2d_forward(x, w, 1, 1)) <= CONV_IDX_FORWARD_PEAK
    unit = np.where(w < 0.0, -1.0, 1.0)
    assert traced_peak(lambda: conv2d_forward(x, unit, 1, 1)) <= CONV_IDX_UNIT_FORWARD_PEAK
    assert traced_peak(lambda: conv2d_backward(x, w, g_out, 1, 1)) <= CONV_IDX_BACKWARD_PEAK


# The binarized forward at conv-idx's evaluation shape, x (256, 8, 16, 16):
# the output (4,194,304 B), one tile's input planes (8 rows of 26 images at
# 17 * 17 values and the last tap's reach of 36, 483,200 B) and its
# accumulator and product rows (60,112 B each), plus about 25 KB of views
# and numpy bookkeeping: 4,823,216 B (numpy 2.4).  The kernel that copied
# each tap's window peaked at 5,183,097 B.
CONV_IDX_EVAL_UNIT_FORWARD_PEAK = 5_000_000


def test_binarized_conv_peak_at_the_eval_shape():
    rng = Rng(5)
    x = rng.normals((256, 8, 16, 16))
    w = np.where(rng.normals((8, 8, 3, 3)) < 0.0, -1.0, 1.0)
    assert traced_peak(lambda: conv2d_forward(x, w, 1, 1)) <= CONV_IDX_EVAL_UNIT_FORWARD_PEAK


# A conv net whose activations are 1 MiB (batch 64, 8 x 16 x 16), above
# glibc's default mmap threshold: warm up, then print the minor page faults
# of each later round of an FSG epoch, an STE epoch and an evaluation.
FAULT_ROUNDS = """
import json, resource
import numpy as np
from fsglab.model import Model
from fsglab.rng import Rng
from fsglab.trainer import FsgTrainer, LrDecay, OptimizerConfig, SteTrainer, TrainConfig

layers = ("conv2d:1:8:3:pad=1", "bias:8", "relu", "conv2d:8:8:3:pad=1:bin", "bias:8",
          "relu", "flatten", "dense:2048:10", "bias:10")
cfg = dict(l=2, base_optimizer=OptimizerConfig(kind="adam", lr=3e-3), batch_size=64,
           lr_decay=LrDecay(every=0, factor=1.0), seed=3, fast_hidden=16, token_dim=8,
           state_dim=3, expand=1)
x, y = Rng(5).uniforms((128, 1, 16, 16)), np.arange(128) % 10
fsg = FsgTrainer(Model.build(layers, Rng(7)), TrainConfig(**cfg))
ste = SteTrainer(Model.build(layers, Rng(7)), TrainConfig(**cfg))
faults = []
for _ in range(8):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fsg.train_epoch(x, y)
    ste.train_epoch(x, y)
    fsg.evaluate(x[:64], y[:64])
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults[4:]))
"""


class TestAllocatorPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc policy")
    def test_steady_state_rounds_take_no_page_faults(self):
        # at glibc's default thresholds the freed activations are unmapped or
        # trimmed between phases, and each round faulted about 9400 pages back in
        src = Path(__file__).resolve().parents[1] / "src"
        run = subprocess.run([sys.executable, "-c", FAULT_ROUNDS], capture_output=True,
                             text=True, timeout=120,
                             env=dict(os.environ, PYTHONPATH=str(src)))
        assert run.returncode == 0, run.stderr[-2000:]
        faults = json.loads(run.stdout)
        assert max(faults) <= 64, faults

    @staticmethod
    def fake_libc(monkeypatch, *symbols, result=1):
        """ctypes.CDLL(None) gives a libc with these symbols; returns its mallopt calls."""
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return result

        libc = type("Libc", (), {name: staticmethod(mallopt) for name in symbols})
        monkeypatch.setattr(tensor.ctypes, "CDLL", lambda name: libc())
        return calls

    def test_sets_both_thresholds_on_glibc(self, monkeypatch):
        calls = self.fake_libc(monkeypatch, "gnu_get_libc_version", "mallopt")
        assert tensor._keep_freed_memory()
        assert calls == [(-3, 32 << 20), (-1, 1 << 30)]

    def test_refused_mmap_threshold_leaves_trim_threshold(self, monkeypatch):
        calls = self.fake_libc(monkeypatch, "gnu_get_libc_version", "mallopt", result=0)
        assert not tensor._keep_freed_memory()
        assert calls == [(-3, 32 << 20)]

    @pytest.mark.parametrize("symbols", [("gnu_get_libc_version",), ("mallopt",)],
                             ids=["no-mallopt", "not-glibc"])
    def test_no_glibc_mallopt_sets_nothing(self, monkeypatch, symbols):
        calls = self.fake_libc(monkeypatch, *symbols)
        assert not tensor._keep_freed_memory()
        assert calls == []

    @pytest.mark.parametrize("error", [OSError, TypeError])
    def test_libc_that_does_not_load_sets_nothing(self, monkeypatch, error):
        def unloadable(name):
            raise error("no library")

        monkeypatch.setattr(tensor.ctypes, "CDLL", unloadable)
        assert not tensor._keep_freed_memory()
