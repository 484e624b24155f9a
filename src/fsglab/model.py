"""Feed-forward model built from the closed set of layer kinds.

Kinds: dense, conv2d, bias, relu, tanh, flatten, plus the softmax
cross-entropy head applied by the trainer.  dense and conv2d carry a
`binarize` flag; the others never binarize.  Forward accepts per-layer
weight overrides so a trainer can substitute binarized or re-parameterized
weights without mutating the stored full-precision ones, and backward
returns the gradient with respect to exactly the weight array the forward
used.  A layer's backward(cache, g_out, need_input) returns (g_input,
grads); with need_input=False a layer with weights skips its input
gradient and returns None for it.

Layer descriptors (config `model.layers`):

    dense:IN:OUT[:bin]
    conv2d:CIN:COUT:K[:stride=S][:pad=P][:bin]
    bias:N
    relu | tanh | flatten

Any other field, a `bin` on a kind that never binarizes or a repeated `bin`
included, raises ContractError naming the descriptor.
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


class Layer:
    """Defaults a kind overrides: no parameter array, never binarized, nothing to initialise."""

    param = None  # attribute name of the kind's parameter array
    binarize = False

    def init_params(self, rng: Rng) -> None:
        pass


class DenseLayer(Layer):
    """x @ w.  The forward runs on `tensor.matmul`, bit-identical to the
    naive loop; the backward, like `conv2d_backward`, runs both contractions
    as `np.matmul` in BLAS order and agrees with a naive loop to 1e-12
    relative."""

    kind = "dense"
    param = "w"

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

    def backward(self, cache, g_out, need_input=True):
        x, w = cache
        g_x = np.matmul(g_out, w.T) if need_input else None
        g_w = np.matmul(x.T, g_out)
        return g_x, {"w": g_w}


class Conv2dLayer(Layer):
    kind = "conv2d"
    param = "w"

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

    def backward(self, cache, g_out, need_input=True):
        x, w = cache
        g_x, g_w = conv2d_backward(x, w, g_out, self.stride, self.pad, need_input)
        return g_x, {"w": g_w}


class BiasLayer(Layer):
    kind = "bias"
    param = "b"  # starts at zero

    def __init__(self, dim: int):
        self.dim = dim
        self.b = np.zeros(dim, dtype=DTYPE)

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

    def backward(self, cache, g_out, need_input=True):
        ndim = cache
        axes = (0,) if ndim == 2 else (0, 2, 3)
        return g_out, {"b": g_out.sum(axis=axes)}


class ReluLayer(Layer):
    kind = "relu"

    def forward(self, x, w=None):
        return relu_forward(x), x

    def backward(self, cache, g_out, need_input=True):
        return relu_backward(cache, g_out), {}


class TanhLayer(Layer):
    kind = "tanh"

    def forward(self, x, w=None):
        out = np.tanh(x)
        return out, out

    def backward(self, cache, g_out, need_input=True):
        return g_out * (1.0 - cache * cache), {}


class FlattenLayer(Layer):
    kind = "flatten"

    def forward(self, x, w=None):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, cache, g_out, need_input=True):
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


# the kinds whose descriptor is the kind alone
_FIELDLESS = {"relu": ReluLayer, "tanh": TanhLayer, "flatten": FlattenLayer}


def parse_layer(descriptor: str):
    parts = [p.strip() for p in descriptor.strip().split(":") if p.strip()]
    if not parts:
        raise ContractError("empty layer descriptor")
    kind, *flags = parts
    if flags.count("bin") > 1:
        raise ContractError(f"bin given more than once in {descriptor!r}")
    binarize = "bin" in flags
    flags = [f for f in flags if f != "bin"]
    if kind == "dense":
        if len(flags) != 2:
            raise ContractError(f"dense needs IN:OUT, got {descriptor!r}")
        return DenseLayer(*(_integer(f, descriptor, 1) for f in flags), binarize)
    if kind == "conv2d":
        opts = {}
        dims = []
        for f in flags:
            if "=" in f:
                key, val = f.split("=", 1)
                if key not in ("stride", "pad"):
                    raise ContractError(f"unknown conv2d option {key!r}")
                if key in opts:
                    raise ContractError(f"{key} given more than once in {descriptor!r}")
                opts[key] = _integer(val, descriptor)  # ranges: tensor._conv_geometry
            else:
                dims.append(_integer(f, descriptor, 1))
        if len(dims) != 3:
            raise ContractError(f"conv2d needs CIN:COUT:K, got {descriptor!r}")
        return Conv2dLayer(*dims, opts.get("stride", 1), opts.get("pad", 0), binarize)
    if kind == "bias":
        if len(parts) != 2 or binarize:
            raise ContractError(f"bias needs one field, its width N, got {descriptor!r}")
        return BiasLayer(_integer(flags[0], descriptor, 1))
    if kind in _FIELDLESS:
        if len(parts) != 1:
            raise ContractError(f"{kind} takes no fields, got {descriptor!r}")
        return _FIELDLESS[kind]()
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
        return [i for i, l in enumerate(self.layers) if l.binarize]

    def named_params(self):
        return [(f"layer{i}.{l.param}", getattr(l, l.param))
                for i, l in enumerate(self.layers) if l.param]

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
        """Gradients of every parameter, keyed like named_params.

        For layers whose forward ran with an override, the "w" entry is the
        gradient w.r.t. that override (the weights actually used).  Nothing
        reads the gradient w.r.t. the model input, so the walk ends at the
        lowest layer with parameters and skips that layer's input gradient.
        """
        lowest = next((i for i, l in enumerate(self.layers) if l.param), len(self.layers))
        grads = {}
        g = g_out
        for i in range(len(self.layers) - 1, lowest - 1, -1):
            g, layer_grads = self.layers[i].backward(caches[i], g, i > lowest)
            for pname, garr in layer_grads.items():
                grads[f"layer{i}.{pname}"] = garr
        return grads
