import re
import tracemalloc

import numpy as np
import pytest

from fsglab import model as model_module
from fsglab.errors import ContractError, DimensionError
from fsglab.model import DenseLayer, Model, parse_layer
from fsglab.rng import Rng
from fsglab.tensor import finite_diff_check, softmax_cross_entropy


def test_parse_layer_errors():
    with pytest.raises(ContractError):
        parse_layer("dense:3")
    with pytest.raises(ContractError):
        parse_layer("conv2d:1:2:3:dilation=2")
    with pytest.raises(ContractError):
        parse_layer("attention")
    with pytest.raises(ContractError):
        parse_layer("")


@pytest.mark.parametrize("descriptor,message", [
    ("dense:2:-3", "size -3 must be >= 1 in 'dense:2:-3'"),
    ("dense:2:0", "size 0 must be >= 1 in 'dense:2:0'"),
    ("dense:2:x", "'x' is not an integer in 'dense:2:x'"),
    ("bias:0", "size 0 must be >= 1 in 'bias:0'"),
    ("conv2d:1:0:3", "size 0 must be >= 1 in 'conv2d:1:0:3'"),
    ("conv2d:1:2:1.5", "'1.5' is not an integer in 'conv2d:1:2:1.5'"),
    ("conv2d:1:2:3:stride=q", "'q' is not an integer in 'conv2d:1:2:3:stride=q'"),
    ("conv2d:1:2:3:pad=", "'' is not an integer in 'conv2d:1:2:3:pad='"),
    # a field the kind does not read, a bin flag included, is an error, not dropped
    ("relu:bin", "relu takes no fields, got 'relu:bin'"),
    ("tanh:64", "tanh takes no fields, got 'tanh:64'"),
    ("flatten:2:3", "flatten takes no fields, got 'flatten:2:3'"),
    ("bias:4:bin", "bias needs one field, its width N, got 'bias:4:bin'"),
    ("bias:bin", "bias needs one field, its width N, got 'bias:bin'"),
    ("bias:4:5", "bias needs one field, its width N, got 'bias:4:5'"),
    ("bias", "bias needs one field, its width N, got 'bias'"),
    ("dense:2:3:bin:bin", "bin given more than once in 'dense:2:3:bin:bin'"),
    ("conv2d:1:2:3:bin:pad=1:bin", "bin given more than once in 'conv2d:1:2:3:bin:pad=1:bin'"),
    ("conv2d:1:2:3:stride=2:stride=1",
     "stride given more than once in 'conv2d:1:2:3:stride=2:stride=1'"),
    ("conv2d:1:2:3:pad=1:bin:pad=1", "pad given more than once in 'conv2d:1:2:3:pad=1:bin:pad=1'"),
])
def test_parse_layer_rejects_bad_sizes(descriptor, message):
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        parse_layer(descriptor)


def test_parse_layer_options():
    conv = parse_layer("conv2d:2:4:3:stride=2:pad=1:bin")
    assert conv.stride == 2 and conv.pad == 1 and conv.binarize
    dense = parse_layer("dense:5:7:bin")
    assert dense.binarize and dense.w.shape == (5, 7)


def test_forward_shape_error_names_layer():
    model = Model.build(["flatten", "dense:10:2:bin"], Rng(0))
    with pytest.raises(DimensionError,
                       match=r"^layer 1 \(dense\): matmul shape mismatch: \(4, 9\) x \(10, 2\)$"):
        model.forward(np.zeros((4, 3, 3)))


def test_binarized_indices_and_named_params():
    model = Model.build(["dense:2:4:bin", "bias:4", "relu", "dense:4:2"], Rng(0))
    assert model.binarized_indices() == [0]
    names = [n for n, _ in model.named_params()]
    assert names == ["layer0.w", "layer1.b", "layer3.w"]


def test_full_model_backward_matches_finite_differences():
    """Every layer kind's backward, composed through a whole model."""
    layers = ["conv2d:1:2:3:pad=1", "bias:2", "relu", "flatten",
              "dense:32:5", "bias:5", "tanh", "dense:5:3"]
    model = Model.build(layers, Rng(3))
    rng = Rng(4)
    x = rng.normals((4, 1, 4, 4))
    labels = np.array([0, 1, 2, 0])

    def loss_fn():
        logits, _ = model.forward(x)
        return softmax_cross_entropy(logits, labels)[0]

    logits, caches = model.forward(x)
    _, g_logits, _ = softmax_cross_entropy(logits, labels)
    grads = model.backward(g_logits, caches)

    for name, arr in model.named_params():
        err = finite_diff_check(lambda _: loss_fn(), arr, grads[name])
        assert err < 1e-5, f"{name}: {err}"


def test_weight_override_gradient_is_wrt_override():
    model = Model.build(["dense:3:2"], Rng(5))
    rng = Rng(6)
    x = rng.normals((4, 3))
    override = rng.normals((3, 2))
    cot = rng.normals((4, 2))
    out, caches = model.forward(x, overrides={0: override})
    assert np.allclose(out, x @ override, atol=1e-12)
    grads = model.backward(cot, caches)
    err = finite_diff_check(
        lambda p: float(np.sum(cot * model.forward(x, overrides={0: p})[0])),
        override, grads["layer0.w"])
    assert err < 1e-6


def test_backward_skips_the_model_input_gradient(monkeypatch):
    """Nothing reads the gradient w.r.t. the model input: the lowest layer
    with parameters skips its input gradient and the layers below it are not
    run backward."""
    asked = []
    conv_backward = model_module.conv2d_backward

    def spy(x, w, g_out, stride, pad, input_grad):
        asked.append(input_grad)
        return conv_backward(x, w, g_out, stride, pad, input_grad)

    monkeypatch.setattr(model_module, "conv2d_backward", spy)
    model = Model.build(["relu", "conv2d:1:2:3:pad=1", "relu", "conv2d:2:2:3",
                         "flatten", "dense:8:3"], Rng(7))
    x = Rng(8).normals((2, 1, 4, 4))
    logits, caches = model.forward(x)
    caches[0] = None  # the leading relu's backward would fail on it
    grads = model.backward(np.ones_like(logits), caches)
    assert asked == [True, False]
    assert sorted(grads) == ["layer1.w", "layer3.w", "layer5.w"]


def naive_dense_backward(x, w, g_out):
    """Gradients of sum(g_out * (x @ w)) by the 3-loop chain rule."""
    g_x, g_w = np.zeros_like(x), np.zeros_like(w)
    for b in range(x.shape[0]):
        for i in range(w.shape[0]):
            for o in range(w.shape[1]):
                g_x[b, i] += g_out[b, o] * w[i, o]
                g_w[i, o] += x[b, i] * g_out[b, o]
    return g_x, g_w


# (batch, in, out): one sample (g_w sums one term), one input (K = 1), one
# output (g_x sums one term), conv-idx's 2048-wide head and slow-wide's
# 64-wide stack.
DENSE_SHAPES = [(1, 7, 5), (6, 1, 4), (6, 4, 1), (5, 2048, 10), (16, 64, 64)]


@pytest.mark.parametrize("batch,in_dim,out_dim", DENSE_SHAPES)
def test_dense_backward_matches_naive(batch, in_dim, out_dim):
    """The backward sums in BLAS order, so it agrees with the loop to 1e-12
    relative, not bit for bit as the forward does."""
    rng = Rng(batch + 3 * in_dim + 7 * out_dim)
    x, w = rng.normals((batch, in_dim)), rng.normals((in_dim, out_dim))
    g_out = rng.normals((batch, out_dim))
    g_x, grads = DenseLayer(in_dim, out_dim).backward((x, w), g_out)
    for got, want in zip((g_x, grads["w"]), naive_dense_backward(x, w, g_out)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("batch,in_dim,out_dim", DENSE_SHAPES)
def test_dense_backward_without_input_gradient_keeps_weight_gradient_bits(
        batch, in_dim, out_dim):
    rng = Rng(batch + 5 * in_dim + 11 * out_dim)
    x, w = rng.normals((batch, in_dim)), rng.normals((in_dim, out_dim))
    g_out = rng.normals((batch, out_dim))
    layer = DenseLayer(in_dim, out_dim)
    g_x, grads = layer.backward((x, w), g_out, need_input=False)
    assert g_x is None
    assert grads["w"].tobytes() == layer.backward((x, w), g_out)[1]["w"].tobytes()


# tracemalloc peak of one backward at slow-wide's x (800, 64), w (64, 64)
# (numpy 2.4).  The kernel that ran g_x on `tensor.matmul` and g_w on
# einsum peaked at 1,640,440 B: the 512 KiB block of rank-1 terms, the
# transposed accumulator and its C-contiguous copy (409,600 B each) and
# g_w.  The BLAS backward keeps only g_x and g_w (442,368 B) and peaked
# at 443,120 B.
DENSE_SLOW_WIDE_BACKWARD_PEAK = 500_000


def test_dense_backward_peak_at_slow_wide_shape():
    rng = Rng(5)
    x, w, g_out = rng.normals((800, 64)), rng.normals((64, 64)), rng.normals((800, 64))
    layer = DenseLayer(64, 64)
    layer.backward((x, w), g_out)  # warm numpy's caches before measuring
    tracemalloc.start()
    try:
        layer.backward((x, w), g_out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= DENSE_SLOW_WIDE_BACKWARD_PEAK


def test_build_determinism():
    a = Model.build(["dense:2:4", "bias:4", "dense:4:2"], Rng(9))
    b = Model.build(["dense:2:4", "bias:4", "dense:4:2"], Rng(9))
    for (n1, p1), (n2, p2) in zip(a.named_params(), b.named_params()):
        assert n1 == n2
        assert np.array_equal(p1, p2)
