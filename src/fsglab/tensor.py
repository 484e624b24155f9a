"""Dense-tensor kernels with explicit forward and backward rules.

Tensors are numpy float64 arrays in C (row-major) order; that layout is the
documented flattening order everywhere in this package (a 4-D conv weight
flattens as nested (C_out, C_in, K, K)).  There is no autograd graph: each
operation exposes its own backward rule so a backward can be swapped out at
one point without touching the rest of the chain.

Reference mode is 64-bit and single-threaded.  `matmul` and `conv2d_forward`
accumulate in ascending contraction order, which makes them bit-identical to
the naive nested-loop evaluation of the same product: every output element
starts at +0.0 and takes its terms one at a time, in ascending contraction
index, each as a rounded multiply followed by a rounded add.  The kernels
vectorize across output elements, never along the contraction.  Blocking
only groups several contraction indices into one numpy call: `matmul` forms
a block's rank-1 products in one multiply and reduces them over their
leading axis, which numpy does by adding the rows into the output one after
another, in order.

Each scratch buffer of a kernel call holds at most `_SCRATCH` float64
values and is reused from block to block; only a single output row
(`matmul`) or a single image (convolutions) that is larger by itself raises
that.  There is no full im2col: the convolutions copy one tap's
strided window at a time.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError, EvaluationError
from .rng import Rng

DTYPE = np.float64

# Largest number of float64 values (512 KiB) in one kernel scratch buffer.
# A tile of that size stays in a 2 MiB L2 cache, and its contiguous runs
# stay in the thousands, long enough for numpy not to buffer its ufunc loops.
_SCRATCH = 1 << 16

# Contraction indices per `matmul` block when the output is too large for
# the block to hold all of its rows: fewer make the per-block calls and the
# extra add of the accumulator dominate.
_K_BLOCK = 64


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with deterministic (ascending-k) summation order.

    Bit-identical to `sum_k a[i,k]*b[k,j]` accumulated k=0..K-1 per output
    element, which is what a naive triple loop computes.  When m > n the
    kernel accumulates the transpose (b.T a.T), so the longer output axis is
    the contiguous one, and returns it copied into a fresh C-contiguous
    (m, n) array: a transposed view would change the pairwise order of later
    row sums.  The k axis is walked in blocks whose rank-1 products fit in
    `_SCRATCH`; a block is added into the accumulator in ascending k.
    """
    a = np.asarray(a, dtype=DTYPE)
    b = np.asarray(b, dtype=DTYPE)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    flip = a.shape[0] > b.shape[1]
    if flip:
        a, b = b.T, a.T
    rows, depth = a.shape
    cols = b.shape[1]
    acc = np.zeros((rows, cols), dtype=DTYPE)
    if cols == 1:
        # A one-column reduction would be numpy's inner loop, which sums
        # pairwise; one k per block keeps the order.
        k_tile = 1
    else:
        k_tile = max(1, min(depth, _SCRATCH // max(cols, 1),
                            max(_K_BLOCK, _SCRATCH // max(rows * cols, 1))))
    row_tile = max(1, min(rows, _SCRATCH // max(k_tile * cols, 1)))
    terms_buf = np.empty(k_tile * row_tile * cols, dtype=DTYPE)
    rhs_buf = np.empty(k_tile * cols, dtype=DTYPE)
    for k0 in range(0, depth, k_tile):
        kb = min(k_tile, depth - k0)
        rhs = rhs_buf[: kb * cols].reshape(kb, cols)
        np.copyto(rhs, b[k0 : k0 + kb])  # contiguous rows, also when b is a.T
        for r0 in range(0, rows, row_tile):
            out = acc[r0 : r0 + row_tile]
            terms = terms_buf[: kb * out.size].reshape(kb, out.shape[0], cols)
            np.multiply(a[r0 : r0 + row_tile, k0 : k0 + kb, None], rhs,
                        out=terms.transpose(1, 0, 2))
            np.add(out, terms[0], out=terms[0])
            np.add.reduce(terms, axis=0, out=out)
    return np.ascontiguousarray(acc.T) if flip else acc


def _conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _conv_geometry(x, w, stride: int, pad: int):
    """Validated float64 (x, w) of a conv2d and its output (height, width)."""
    x = np.asarray(x, dtype=DTYPE)
    w = np.asarray(w, dtype=DTYPE)
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d expects 4-D input/kernel, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs kernel {w.shape}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise DomainError(f"pad must be >= 0, got {pad}")
    height, width = x.shape[2:]
    kh, kw = w.shape[2:]
    if kh > height + 2 * pad or kw > width + 2 * pad:
        raise DimensionError(
            f"kernel {w.shape} larger than padded input {x.shape} (pad={pad})"
        )
    return x, w, _conv_out_size(height, kh, stride, pad), _conv_out_size(width, kw, stride, pad)


def _batch_tile(batch: int, *per_image: int) -> int:
    """Images per batch tile: buffers needing per_image[i] values an image fit in _SCRATCH."""
    return max(1, min(batch, _SCRATCH // max(*per_image, 1)))


def _window(xp, i: int, j: int, stride: int, h_out: int, w_out: int):
    """View of xp[..., i + stride*r, j + stride*c] over output positions (r, c)."""
    return xp[..., i : i + stride * h_out : stride, j : j + stride * w_out : stride]


def conv2d_forward(x, w, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlation of x[B,C_in,H,W] with w[C_out,C_in,K,K].

    Accumulates contributions in ascending (c_in, kh, kw) order, matching a
    naive 7-loop evaluation bit-for-bit.  Per batch tile, each tap's strided
    window is copied into one contiguous column, and the outer product of
    w[:, tap] and that column is added into a (C_out, tile*H_out*W_out)
    accumulator, which is copied into the output once the tile's taps are
    done.
    """
    x, w, h_out, w_out = _conv_geometry(x, w, stride, pad)
    batch, c_in, height, width = x.shape
    c_out, _, kh, kw = w.shape
    hw = h_out * w_out
    padded = (height + 2 * pad, width + 2 * pad)
    tile = _batch_tile(batch, c_in * padded[0] * padded[1], c_out * hw)
    xp = np.zeros((tile, c_in) + padded, dtype=DTYPE)
    col_buf = np.empty(tile * hw, dtype=DTYPE)
    acc_buf = np.empty(c_out * tile * hw, dtype=DTYPE)
    prod_buf = np.empty_like(acc_buf)
    out = np.empty((batch, c_out, h_out, w_out), dtype=DTYPE)
    for b0 in range(0, batch, tile):
        n = min(tile, batch - b0)
        xp[:n, :, pad : pad + height, pad : pad + width] = x[b0 : b0 + n]
        col = col_buf[: n * hw]
        acc = acc_buf[: c_out * n * hw].reshape(c_out, n * hw)
        prod = prod_buf[: c_out * n * hw].reshape(c_out, n * hw)
        acc.fill(0.0)
        for ci in range(c_in):
            for i in range(kh):
                for j in range(kw):
                    np.copyto(col.reshape(n, h_out, w_out),
                              _window(xp[:n, ci], i, j, stride, h_out, w_out))
                    np.multiply(w[:, ci, i, j, None], col, out=prod)
                    np.add(acc, prod, out=acc)
        out[b0 : b0 + n] = acc.reshape(c_out, n, h_out, w_out).transpose(1, 0, 2, 3)
    return out


def conv2d_backward(x, w, g_out, stride: int = 1, pad: int = 0):
    """Gradients of sum(g_out * conv2d_forward(x, w)) w.r.t. x and w.

    Per batch tile and kernel offset (kh, kw), the windows of every input
    channel are copied into a (C_in, tile*H_out*W_out) column block, and two
    `np.matmul` contractions with the tile's cotangent give that offset's
    weight gradient and the input-gradient columns, which are added back
    into the padded input's window.  Sums run in BLAS order, not in a fixed
    one.
    """
    x, w, h_out, w_out = _conv_geometry(x, w, stride, pad)
    g_out = np.asarray(g_out, dtype=DTYPE)
    batch, c_in, height, width = x.shape
    c_out, _, kh, kw = w.shape
    if g_out.shape != (batch, c_out, h_out, w_out):
        raise DimensionError(
            f"conv2d_backward cotangent shape {g_out.shape} != output shape "
            f"{(batch, c_out, h_out, w_out)}"
        )
    hw = h_out * w_out
    padded = (height + 2 * pad, width + 2 * pad)
    tile = _batch_tile(batch, c_in * padded[0] * padded[1], c_out * hw, c_in * hw)
    xp = np.zeros((tile, c_in) + padded, dtype=DTYPE)
    g_xp = np.empty_like(xp)
    g_buf = np.empty(c_out * tile * hw, dtype=DTYPE)
    col_buf = np.empty(c_in * tile * hw, dtype=DTYPE)
    g_x = np.empty_like(x)
    g_w = np.zeros_like(w)
    for b0 in range(0, batch, tile):
        n = min(tile, batch - b0)
        xp[:n, :, pad : pad + height, pad : pad + width] = x[b0 : b0 + n]
        g = g_buf[: c_out * n * hw].reshape(c_out, n, hw)
        np.copyto(g, g_out[b0 : b0 + n].reshape(n, c_out, hw).transpose(1, 0, 2))
        g = g.reshape(c_out, n * hw)
        cols = col_buf[: c_in * n * hw].reshape(c_in, n, h_out, w_out)
        flat = cols.reshape(c_in, n * hw)
        gxp = g_xp[:n]
        gxp.fill(0.0)
        for i in range(kh):
            for j in range(kw):
                np.copyto(cols, _window(xp[:n], i, j, stride, h_out, w_out).transpose(1, 0, 2, 3))
                g_w[:, :, i, j] += np.matmul(g, flat.T)
                np.matmul(w[:, :, i, j].T, g, out=flat)  # the columns' gradient
                window = _window(gxp, i, j, stride, h_out, w_out)
                window += cols.transpose(1, 0, 2, 3)
        g_x[b0 : b0 + n] = gxp[:, :, pad : pad + height, pad : pad + width]
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
