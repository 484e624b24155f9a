import re

import numpy as np
import pytest

from fsglab.errors import ContractError, DimensionError
from fsglab.model import Model, parse_layer
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
    _, grads = model.backward(g_logits, caches)

    for name, arr in model.named_params():
        def f(val, arr=arr):
            saved = arr.copy()
            arr[...] = val
            try:
                return loss_fn()
            finally:
                arr[...] = saved
        err = finite_diff_check(f, arr, grads[name])
        assert err < 1e-5, f"{name}: {err}"


def test_weight_override_gradient_is_wrt_override():
    model = Model.build(["dense:3:2"], Rng(5))
    rng = Rng(6)
    x = rng.normals((4, 3))
    override = rng.normals((3, 2))
    cot = rng.normals((4, 2))
    out, caches = model.forward(x, overrides={0: override})
    assert np.allclose(out, x @ override, atol=1e-12)
    _, grads = model.backward(cot, caches)
    err = finite_diff_check(
        lambda p: float(np.sum(cot * model.forward(x, overrides={0: p})[0])),
        override, grads["layer0.w"])
    assert err < 1e-6


def test_build_determinism():
    a = Model.build(["dense:2:4", "bias:4", "dense:4:2"], Rng(9))
    b = Model.build(["dense:2:4", "bias:4", "dense:4:2"], Rng(9))
    for (n1, p1), (n2, p2) in zip(a.named_params(), b.named_params()):
        assert n1 == n2
        assert np.array_equal(p1, p2)
