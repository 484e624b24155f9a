"""Feed-forward model built from the closed set of layer kinds.

Kinds: dense, conv2d, bias, relu, tanh, flatten, plus the softmax
cross-entropy head applied by the trainer.  dense and conv2d carry a
`binarize` flag; the others never binarize.  Forward accepts per-layer
weight overrides so a trainer can substitute binarized or re-parameterized
weights without mutating the stored full-precision ones, and backward
returns the gradient with respect to exactly the weight array the forward
used.

Layer descriptors (config `model.layers`):

    dense:IN:OUT[:bin]
    conv2d:CIN:COUT:K[:stride=S][:pad=P][:bin]
    bias:N
    relu | tanh | flatten
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError
from .rng import Rng
from .tensor import (
    DTYPE,
    conv2d_backward,
    conv2d_forward,
    matmul,
    relu_backward,
    relu_forward,
)

LAYER_KINDS = ("dense", "conv2d", "bias", "relu", "tanh", "flatten")


class DenseLayer:
    kind = "dense"

    def __init__(self, in_dim: int, out_dim: int, binarize: bool = False):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.binarize = binarize
        self.w = np.zeros((in_dim, out_dim), dtype=DTYPE)

    def init_params(self, rng: Rng) -> None:
        self.w = rng.normals((self.in_dim, self.out_dim)) / np.sqrt(self.in_dim)

    def forward(self, x, w=None):
        w = self.w if w is None else w
        return matmul(x, w), (x, w)

    def backward(self, cache, g_out):
        x, w = cache
        g_x = matmul(g_out, w.T)
        g_w = np.einsum("bi,bo->io", x, g_out)
        return g_x, {"w": g_w}


class Conv2dLayer:
    kind = "conv2d"

    def __init__(self, c_in: int, c_out: int, k: int, stride: int = 1, pad: int = 0,
                 binarize: bool = False):
        self.c_in = c_in
        self.c_out = c_out
        self.k = k
        self.stride = stride
        self.pad = pad
        self.binarize = binarize
        self.w = np.zeros((c_out, c_in, k, k), dtype=DTYPE)

    def init_params(self, rng: Rng) -> None:
        fan_in = self.c_in * self.k * self.k
        self.w = rng.normals((self.c_out, self.c_in, self.k, self.k)) / np.sqrt(fan_in)

    def forward(self, x, w=None):
        w = self.w if w is None else w
        return conv2d_forward(x, w, self.stride, self.pad), (x, w)

    def backward(self, cache, g_out):
        x, w = cache
        g_x, g_w = conv2d_backward(x, w, g_out, self.stride, self.pad)
        return g_x, {"w": g_w}


class BiasLayer:
    kind = "bias"
    binarize = False

    def __init__(self, dim: int):
        self.dim = dim
        self.b = np.zeros(dim, dtype=DTYPE)

    def init_params(self, rng: Rng) -> None:
        pass  # biases start at zero

    def forward(self, x, w=None):
        if x.ndim == 2:
            if x.shape[1] != self.dim:
                raise DimensionError(f"bias dim {self.dim} != features {x.shape[1]}")
            return x + self.b[None, :], x.ndim
        if x.ndim == 4:
            if x.shape[1] != self.dim:
                raise DimensionError(f"bias dim {self.dim} != channels {x.shape[1]}")
            return x + self.b[None, :, None, None], x.ndim
        raise DimensionError(f"bias layer expects 2-D or 4-D input, got {x.shape}")

    def backward(self, cache, g_out):
        ndim = cache
        axes = (0,) if ndim == 2 else (0, 2, 3)
        return g_out, {"b": g_out.sum(axis=axes)}


class ReluLayer:
    kind = "relu"
    binarize = False

    def init_params(self, rng: Rng) -> None:
        pass

    def forward(self, x, w=None):
        return relu_forward(x), x

    def backward(self, cache, g_out):
        return relu_backward(cache, g_out), {}


class TanhLayer:
    kind = "tanh"
    binarize = False

    def init_params(self, rng: Rng) -> None:
        pass

    def forward(self, x, w=None):
        out = np.tanh(x)
        return out, out

    def backward(self, cache, g_out):
        return g_out * (1.0 - cache * cache), {}


class FlattenLayer:
    kind = "flatten"
    binarize = False

    def init_params(self, rng: Rng) -> None:
        pass

    def forward(self, x, w=None):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, cache, g_out):
        return g_out.reshape(cache), {}


def _integer(text: str, descriptor: str, minimum=None) -> int:
    """An integer field of a layer descriptor; sizes pass minimum=1."""
    try:
        value = int(text)
    except ValueError:
        raise ContractError(f"{text!r} is not an integer in {descriptor!r}") from None
    if minimum is not None and value < minimum:
        raise ContractError(f"size {value} must be >= {minimum} in {descriptor!r}")
    return value


def parse_layer(descriptor: str):
    parts = [p.strip() for p in descriptor.strip().split(":") if p.strip()]
    if not parts:
        raise ContractError("empty layer descriptor")
    kind = parts[0]
    flags = parts[1:]
    binarize = "bin" in flags
    flags = [f for f in flags if f != "bin"]
    if kind == "dense":
        if len(flags) != 2:
            raise ContractError(f"dense needs IN:OUT, got {descriptor!r}")
        return DenseLayer(*(_integer(f, descriptor, 1) for f in flags), binarize)
    if kind == "conv2d":
        opts = {"stride": 1, "pad": 0}
        dims = []
        for f in flags:
            if "=" in f:
                key, val = f.split("=", 1)
                if key not in opts:
                    raise ContractError(f"unknown conv2d option {key!r}")
                opts[key] = _integer(val, descriptor)  # ranges: tensor._conv_geometry
            else:
                dims.append(_integer(f, descriptor, 1))
        if len(dims) != 3:
            raise ContractError(f"conv2d needs CIN:COUT:K, got {descriptor!r}")
        return Conv2dLayer(dims[0], dims[1], dims[2], opts["stride"], opts["pad"], binarize)
    if kind == "bias":
        if len(flags) != 1:
            raise ContractError(f"bias needs a width, got {descriptor!r}")
        return BiasLayer(_integer(flags[0], descriptor, 1))
    if kind == "relu":
        return ReluLayer()
    if kind == "tanh":
        return TanhLayer()
    if kind == "flatten":
        return FlattenLayer()
    raise ContractError(f"unknown layer kind {kind!r} (known: {LAYER_KINDS})")


class Model:
    """Ordered layer stack with explicit forward/backward and weight overrides."""

    def __init__(self, layers):
        self.layers = list(layers)

    @classmethod
    def build(cls, descriptors, rng: Rng) -> "Model":
        model = cls([parse_layer(d) for d in descriptors])
        init_rng = rng.derive("model-init")
        for i, layer in enumerate(model.layers):
            layer.init_params(init_rng.derive(f"layer{i}"))
        return model

    def binarized_indices(self):
        return [i for i, l in enumerate(self.layers) if getattr(l, "binarize", False)]

    def named_params(self):
        out = []
        for i, layer in enumerate(self.layers):
            if layer.kind in ("dense", "conv2d"):
                out.append((f"layer{i}.w", layer.w))
            elif layer.kind == "bias":
                out.append((f"layer{i}.b", layer.b))
        return out

    def forward(self, x, overrides=None):
        """Returns (output, caches); overrides maps layer index -> weight array.

        A shape that does not fit a layer raises DimensionError naming the
        layer's index and kind.
        """
        overrides = overrides or {}
        caches = []
        out = np.asarray(x, dtype=DTYPE)
        for i, layer in enumerate(self.layers):
            try:
                out, cache = layer.forward(out, overrides.get(i))
            except DimensionError as exc:
                raise DimensionError(f"layer {i} ({layer.kind}): {exc}") from exc
            caches.append(cache)
        return out, caches

    def backward(self, g_out, caches):
        """Returns (g_input, grads dict keyed like named_params).

        For layers whose forward ran with an override, the "w" entry is the
        gradient w.r.t. that override (the weights actually used).
        """
        grads = {}
        g = g_out
        for i in range(len(self.layers) - 1, -1, -1):
            g, layer_grads = self.layers[i].backward(caches[i], g)
            for pname, garr in layer_grads.items():
                grads[f"layer{i}.{pname}"] = garr
        return g, grads
