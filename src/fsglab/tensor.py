"""Dense-tensor kernels with explicit forward and backward rules.

Tensors are numpy float64 arrays in C (row-major) order; that layout is the
documented flattening order everywhere in this package (a 4-D conv weight
flattens as nested (C_out, C_in, K, K)).  There is no autograd graph: each
operation exposes its own backward rule so a backward can be swapped out at
one point without touching the rest of the chain.

Reference mode is 64-bit and single-threaded.  `matmul` and `conv2d_forward`
accumulate in a fixed order (ascending contraction index), which makes them
bit-identical to the naive nested-loop evaluation of the same product.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError, EvaluationError
from .rng import Rng

DTYPE = np.float64


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with deterministic (ascending-k) summation order.

    Bit-identical to `sum_k a[i,k]*b[k,j]` accumulated k=0..K-1 per output
    element, which is what a naive triple loop computes.
    """
    a = np.asarray(a, dtype=DTYPE)
    b = np.asarray(b, dtype=DTYPE)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=DTYPE)
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


def _conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def conv2d_forward(x, w, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlation of x[B,C_in,H,W] with w[C_out,C_in,K,K].

    Accumulates contributions in ascending (c_in, kh, kw) order, matching a
    naive 7-loop evaluation bit-for-bit.
    """
    x = np.asarray(x, dtype=DTYPE)
    w = np.asarray(w, dtype=DTYPE)
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d expects 4-D input/kernel, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs kernel {w.shape}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    batch, _, height, width = x.shape
    c_out, c_in, kh, kw = w.shape
    if kh > height + 2 * pad or kw > width + 2 * pad:
        raise DimensionError(
            f"kernel {w.shape} larger than padded input {x.shape} (pad={pad})"
        )
    h_out = _conv_out_size(height, kh, stride, pad)
    w_out = _conv_out_size(width, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    out = np.zeros((batch, c_out, h_out, w_out), dtype=DTYPE)
    for ci in range(c_in):
        for i in range(kh):
            for j in range(kw):
                patch = xp[:, ci, i : i + stride * h_out : stride, j : j + stride * w_out : stride]
                out += patch[:, None, :, :] * w[None, :, ci, i, j, None, None]
    return out


def conv2d_backward(x, w, g_out, stride: int = 1, pad: int = 0):
    """Gradients of sum(g_out * conv2d_forward(x, w)) w.r.t. x and w."""
    x = np.asarray(x, dtype=DTYPE)
    w = np.asarray(w, dtype=DTYPE)
    g_out = np.asarray(g_out, dtype=DTYPE)
    batch, _, height, width = x.shape
    c_out, c_in, kh, kw = w.shape
    h_out = _conv_out_size(height, kh, stride, pad)
    w_out = _conv_out_size(width, kw, stride, pad)
    if g_out.shape != (batch, c_out, h_out, w_out):
        raise DimensionError(
            f"conv2d_backward cotangent shape {g_out.shape} != output shape "
            f"{(batch, c_out, h_out, w_out)}"
        )
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    g_xp = np.zeros_like(xp)
    g_w = np.zeros_like(w)
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride]
            g_w[:, :, i, j] = np.einsum("bohw,bchw->oc", g_out, patch)
            g_xp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += (
                np.einsum("bohw,oc->bchw", g_out, w[:, :, i, j])
            )
    g_x = g_xp[:, :, pad : pad + height, pad : pad + width] if pad else g_xp
    return g_x, g_w


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, g_out: np.ndarray) -> np.ndarray:
    return g_out * (x > 0.0)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch; returns (loss, g_logits, probs).

    g_logits is the exact gradient of the mean loss.
    """
    logits = np.asarray(logits, dtype=DTYPE)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.ndim != 1 or logits.shape[0] != labels.shape[0]:
        raise DimensionError(
            f"cross-entropy expects logits (B,K) and labels (B,), got {logits.shape} "
            f"and {labels.shape}"
        )
    batch = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    probs = exp / denom
    log_probs = shifted - np.log(denom)
    loss = -log_probs[np.arange(batch), labels].mean()
    g = probs.copy()
    g[np.arange(batch), labels] -= 1.0
    g /= batch
    return float(loss), g, probs


def finite_diff_check(f, point: np.ndarray, analytic_grad: np.ndarray, h: float = 1e-6) -> float:
    """Max relative error between central differences of f and analytic_grad.

    Per coordinate: |(f(x+h e) - f(x-h e)) / (2h) - analytic| / (|analytic| + 1e-12).
    f maps an array to a scalar and must stay finite at the probe points.
    """
    if h <= 0:
        raise DomainError(f"h must be positive, got {h}")
    point = np.asarray(point, dtype=DTYPE)
    analytic_grad = np.asarray(analytic_grad, dtype=DTYPE)
    if point.shape != analytic_grad.shape:
        raise DimensionError(
            f"gradient shape {analytic_grad.shape} != point shape {point.shape}"
        )
    flat = point.ravel()
    worst = 0.0
    for i in range(flat.size):
        probe = flat.copy()
        probe[i] = flat[i] + h
        fp = float(f(probe.reshape(point.shape)))
        probe[i] = flat[i] - h
        fm = float(f(probe.reshape(point.shape)))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(f"f non-finite at perturbed coordinate {i}")
        fd = (fp - fm) / (2.0 * h)
        err = abs(fd - analytic_grad.ravel()[i]) / (abs(analytic_grad.ravel()[i]) + 1e-12)
        worst = max(worst, err)
    return worst


def orthogonal_init(rows: int, cols: int, rng: Rng) -> np.ndarray:
    """Semi-orthogonal matrix from QR of a Gaussian draw.

    rows >= cols gives M^T M = I_cols, otherwise M M^T = I_rows.  Columns of
    Q are sign-fixed by the R diagonal so the result is a deterministic
    function of the Gaussian draw.
    """
    if rows < 1 or cols < 1:
        raise DomainError(f"orthogonal_init needs positive dims, got {rows}x{cols}")
    big, small = max(rows, cols), min(rows, cols)
    gauss = rng.normals((big, small))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0  # zero pivot is measure-zero; keep the column
    q = q * signs[None, :]
    return np.ascontiguousarray(q if rows >= cols else q.T)
