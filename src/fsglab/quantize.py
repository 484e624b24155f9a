"""DoReFa-style weight preprocessing and binarization.

Preprocessing squashes a weight tensor into [0, 1]:

    w_hat = tanh(W) / (2 * max|tanh(W)|) + 1/2

and quantization snaps it onto a symmetric k-bit grid in [-1, 1]:

    w_b = 2 * round((2^k - 1) * w_hat) / (2^k - 1) - 1

Two conventions that the formulas leave open are fixed here for
reproducibility:

* round() ties break half-away-from-zero, so w_hat = 0.5 maps to +1 at k=1;
* the layer max in the preprocessing derivative is treated as a constant,
  keeping d(w_hat)/dW elementwise:  dA_dW = (1 - tanh^2 W) / (2 max|tanh W|).

An all-zero layer would divide by zero; below EPS_MAX the preprocessed tensor
is defined as 0.5 everywhere with zero derivative.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, EvaluationError
from .tensor import DTYPE

EPS_MAX = 1e-12
DOMAIN_SLACK = 1e-9


def preprocess(w: np.ndarray, m=None):
    """Return (w_hat, dA_dW) for a weight tensor, normalised by the layer max m, by
    default max|tanh(w)|; the trainer's surrogate path passes its base weights'."""
    w = np.asarray(w, dtype=DTYPE)
    if not np.all(np.isfinite(w)):
        raise EvaluationError("preprocess: non-finite weights")
    t = np.tanh(w)
    if m is None:
        m = np.max(np.abs(t)) if w.size else 0.0
    if m < EPS_MAX:
        return np.full_like(w, 0.5), np.zeros_like(w)
    w_hat = t / (2.0 * m) + 0.5
    da_dw = (1.0 - t * t) / (2.0 * m)
    return w_hat, da_dw


def _round_half_away(x: np.ndarray) -> np.ndarray:
    # inputs are >= 0 here ((2^k - 1) * w_hat with w_hat in [0, 1])
    return np.floor(x + 0.5)


def quantize(w_hat: np.ndarray, k: int = 1) -> np.ndarray:
    """Snap w_hat in [0, 1] onto the symmetric k-bit grid in [-1, 1]."""
    w_hat = np.asarray(w_hat, dtype=DTYPE)
    if k < 1:
        raise DomainError(f"bit-width must be >= 1, got {k}")
    if w_hat.size and (w_hat.min() < -DOMAIN_SLACK or w_hat.max() > 1.0 + DOMAIN_SLACK):
        raise DomainError(
            f"quantize input outside [0,1]: min={w_hat.min()!r} max={w_hat.max()!r}"
        )
    levels = float(2**k - 1)
    clipped = np.clip(w_hat, 0.0, 1.0)
    return 2.0 * _round_half_away(levels * clipped) / levels - 1.0


def ste_backward(g_out: np.ndarray) -> np.ndarray:
    """Straight-through rule across the quantizer: identity pass-through."""
    return np.asarray(g_out, dtype=DTYPE)
