"""Dense-tensor kernels with explicit forward and backward rules.

Tensors are numpy float64 arrays in C (row-major) order; that layout is the
documented flattening order everywhere in this package (a 4-D conv weight
flattens as nested (C_out, C_in, K, K)).  There is no autograd graph: each
operation exposes its own backward rule so a backward can be swapped out at
one point without touching the rest of the chain.

Reference mode is 64-bit and single-threaded.  Forward contractions run in
a fixed ascending order, bit-identical to the naive loop; every backward
contraction, dense (`model.DenseLayer`, on `np.matmul`) or conv
(`conv2d_backward`), runs in BLAS order and agrees with a naive loop to
1e-12 relative.  The forward kernels, `matmul` and `conv2d_forward`,
accumulate in ascending contraction order, which makes them bit-identical to
the naive nested-loop evaluation of the same product: every output element
starts at +0.0 and takes its terms one at a time, in ascending contraction
index, each as a rounded multiply followed by a rounded add.  The kernels
vectorize across output elements, never along the contraction.  Blocking
only groups several contraction indices into one numpy call: `matmul` forms
a block's rank-1 products in one multiply and reduces them over their
leading axis, which numpy does by adding the rows into the output one after
another, in order.  `conv2d_forward` takes one output channel at a time
and adds its taps into one row, each tap a shifted view of the input laid
out as flat zero-padded planes, one per stride phase (`_conv_planes`), so it
copies no windows.  It drops the multiply where it is exact without it: a
weight of +1 or -1, as in a 1-bit binarized layer, adds or subtracts the
view, which gives the same bits because (+-1) * v is exact and IEEE 754
defines a - v as a + (-v).  `matmul` keeps its multiply: one add or subtract
call per (row, k) costs more than the whole blocked product.
`conv2d_backward` works on the same planes, with one BLAS product per
kernel offset and direction.

Each scratch buffer of a kernel call holds at most `_SCRATCH` float64
values and is reused from block to block; only a single output row
(`matmul`) or a single image (convolutions) that is larger by itself raises
that.  There is no im2col, full or per kernel offset: both conv directions
read each tap as a view of the planes, and neither copies a window.

`matmul` and `conv2d_backward` run with numpy's ufunc buffer scoped down to
`_UFUNC_BUFFER` values (`_small_ufunc_buffer`).  At the default size numpy
runs a broadcast ufunc whose inner runs are shorter than a few thousand
elements on its slow buffered path.  Every rank-1 product block of `matmul`
has such runs, and so do the grid copies of `conv2d_backward`, which move a
tile's pixels and cotangent between the arrays and the planes in runs of one
image row.  In interleaved calls (numpy 2.4, one Xeon core) the scope took
a stride-2 8 -> 8 backward at x (64, 8, 16, 16) to 0.81-0.88 of its
unscoped time, and it was neutral at the stride-1 shapes of the benchmark.
Their operands are aligned float64 and never need a buffer, so the scope
changes the speed only: the same operations run in the same order, and the
caller's buffer size and error settings are restored on return.  The
selective slow net (`hypernet._walk_buffer`) enters the scope once around
each chunk walk whose contiguous inner run d_inner * N is at least
`_UFUNC_BUFFER`: numpy buffers a broadcast whose inner run is shorter than
the buffer, so a smaller buffer helps only runs that reach it and adds
refills below that.

`finite_diff` is the package's one central-difference loop: every gradient
claim, in the acceptance checks and the tests, is checked against it.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import DimensionError, DomainError, EvaluationError
from .rng import Rng

DTYPE = np.float64

# Largest number of float64 values (512 KiB) in one kernel scratch buffer.
# A tile of that size stays in a 2 MiB L2 cache.
_SCRATCH = 1 << 16

# numpy's ufunc buffer size (in elements) inside `matmul`, `conv2d_backward`
# and the selective slow net's chunk walks.  At the default, 8192, a
# broadcast (R, 1) x (1, C) multiply takes numpy's buffered path while C is
# below a few thousand: 1.33 ns per product at C = 800 against 0.34 ns at
# this size, and 0.3 ns either way from C = 4096 (numpy 2.4, one Xeon core).
# In interleaved runs at the benchmark's shapes 128 was fastest or tied for
# both kernels: 16 to 1024 tie in `conv2d_backward` and 8192 slows its
# stride-2 grid copies, 256 slows the 2048-deep head product, and 1024 and
# up bring the slow path back in `matmul`.  A run shorter than this size is
# buffered at either size, so the slow net scopes a walk only when its inner
# run d_inner * N reaches it: a (108, 32, 8) chunk's ld = delta A broadcast
# takes 29.9 us at the default and 9.1 us here (same core), while at
# d_inner * N = 24 a scope around the walk made slow fwd+bwd 5-15% slower in
# interleaved runs.
_UFUNC_BUFFER = 128

# Contraction indices per `matmul` block when the output is too large for
# the block to hold all of its rows: fewer make the per-block calls and the
# extra add of the accumulator dominate.
_K_BLOCK = 64


@contextmanager
def _small_ufunc_buffer():
    """numpy's ufunc buffer at `_UFUNC_BUFFER` values inside the block.

    `np.errstate()` keeps the caller's error settings and restores them and
    the buffer size on exit, also when the block raises."""
    with np.errstate():
        np.setbufsize(_UFUNC_BUFFER)
        yield


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
    with _small_ufunc_buffer():
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


def _conv_planes(x, w, stride: int, pad: int, rows: int):
    """The flat zero-padded planes both conv directions work on, and their batch tile.

    Per batch tile, each input channel lays its zero-padded images end to
    end in flat rows, one row per stride phase: phase (a, b) holds the
    padded pixels (stride * u + a, stride * v + b), at u * pitch + v of an
    image's `plane`.  At stride 1 there is one phase, the image itself, with
    rows W + pad apart.  Output (b, r, c) is position b * plane + r * pitch
    + c of a row of tile * plane values (`_grid`), and tap (i, j) of a
    channel is the contiguous view of its phase (i % stride, j % stride)
    shifted by (i // stride) * pitch + j // stride, so no window is copied.
    Positions past W_out in a row and past an image's last output row are
    dropped positions: they belong to no output.

    Returns the zeroed planes (C_in, stride, stride, tile * plane + reach),
    `tile`, `plane`, `pitch`, per phase (a, b, lead, r0, c0), where `lead` is
    the plane position of its first pixel of x, x[r0, c0], and per tap
    (i, j) in ascending order (a, b, shift).  The tile's `rows` rows of
    planes hold at most `_SCRATCH` values, unless one image does, and the
    tiles split the batch evenly.
    """
    batch, c_in, height, width = x.shape
    kh, kw = w.shape[2:]
    # The pitch is ceil((W + pad) / stride), so a phase row's right pad is
    # the next row's left pad (or W_out, where a pad of at least the kernel
    # width makes that wider, so a row of outputs fits).  The plane is at
    # least ceil((H + pad) / stride) rows, so an image's bottom pad rows are
    # the next image's top ones, and at least H_out rows, so an image's
    # output positions end before the next image's begin.
    pitch = max(-(-(width + pad) // stride), _conv_out_size(width, kw, stride, pad))
    plane = max(-(-(height + pad) // stride), _conv_out_size(height, kh, stride, pad)) * pitch
    phases = []
    for a, b in np.ndindex(stride, stride):
        u0, v0 = -(-max(pad - a, 0) // stride), -(-max(pad - b, 0) // stride)
        phases.append((a, b, u0 * pitch + v0, stride * u0 + a - pad, stride * v0 + b - pad))
    shifts = [(i % stride, j % stride, i // stride * pitch + j // stride)
              for i, j in np.ndindex(kh, kw)]
    # how far past a tile's planes phase (0, 0)'s pixels and the last tap reach
    reach = max(phases[0][2], shifts[-1][2])
    most = (_SCRATCH // max(rows, 1) - reach) // plane
    tiles = max(1, -(-batch // max(1, most)))
    tile = max(1, -(-batch // tiles))
    planes = np.zeros((c_in, stride, stride, tile * plane + reach), dtype=DTYPE)
    return planes, tile, plane, pitch, phases, shifts


def _grid(rows, n: int, plane: int, pitch: int, height: int, width: int):
    """View of positions b * plane + r * pitch + c (b < n, r < height,
    c < width) along the last axis of rows, as (..., n, height, width)."""
    lead = rows.shape[:-1]
    grid = rows[..., : n * plane].reshape(lead + (n, plane))[..., : height * pitch]
    return grid.reshape(lead + (n, height, pitch))[..., :width]


def _pixels(images, planes, phases, stride: int, plane: int, pitch: int):
    """Per stride phase of `_conv_planes`, its pixels of images (n, C, H, W)
    as a (C, n, rows, cols) view, and the view of the same pixels in planes."""
    for a, b, lead, r0, c0 in phases:
        pixels = images[:, :, r0::stride, c0::stride].transpose(1, 0, 2, 3)
        yield pixels, _grid(planes[:, a, b, lead:], len(images), plane, pitch, *pixels.shape[2:])


def _sum_taps(acc, prod, views, units, weights) -> None:
    """acc = the views times their weights, summed in order from +0.0: a
    unit of 1 adds a view and -1 subtracts it; any other weight multiplies
    the view into prod, which is then added."""
    acc.fill(0.0)
    for tap, (view, unit) in enumerate(zip(views, units)):
        if unit == 1:
            np.add(acc, view, acc)
        elif unit == -1:
            np.subtract(acc, view, acc)
        else:
            np.multiply(view, weights[tap], prod)
            np.add(acc, prod, acc)


def conv2d_forward(x, w, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlation of x[B,C_in,H,W] with w[C_out,C_in,K,K].

    Accumulates contributions in ascending (c_in, kh, kw) order, matching a
    naive 7-loop evaluation bit-for-bit.  It works on the flat planes of
    `_conv_planes`: each output channel sums its taps, shifted views of the
    planes, into one row in ascending tap order, and the valid grid of the
    row is copied into out[:, c].

    A weight of +1 adds the view and -1 subtracts it, which rounds like the
    multiply-then-add: (+-1) * v is exact, and IEEE 754 defines a - v as
    a + (-v), signed zeros included.  Any other weight multiplies the view
    into a scratch row, which is then added.  The dropped positions of the
    row are computed too, and may overflow without reaching the output: the
    taps are summed with numpy's floating-point errors caught, and a channel
    that caught one is summed again on its valid grid alone, so the
    caller's error settings see the errors of the outputs only.
    """
    x, w, h_out, w_out = _conv_geometry(x, w, stride, pad)
    batch, c_in = x.shape[:2]
    c_out, _, kh, kw = w.shape
    xp, tile, plane, pitch, phases, shifts = _conv_planes(x, w, stride, pad,
                                                          c_in * stride * stride)
    # per output channel, the taps in ascending (c_in, kh, kw) order: 1 for a
    # weight of +1, -1 for -1 and 0 for any other.  Small ints, not floats:
    # the memory Python keeps for its freed small objects would outlive the call.
    taps = w.reshape(c_out, c_in * kh * kw)
    units = ((taps == 1.0).astype(np.int8) - (taps == -1.0)).tolist()
    acc_row = np.empty(tile * plane, dtype=DTYPE)
    prod_row = np.empty_like(acc_row)
    out = np.empty((batch, c_out, h_out, w_out), dtype=DTYPE)
    caller = dict(np.geterr(), call=np.geterrcall())
    caught = []
    with np.errstate(all="call", call=lambda *error: caught.append(error)):
        for b0 in range(0, batch, tile):
            n = min(tile, batch - b0)
            for pixels, view in _pixels(x[b0 : b0 + n], xp, phases, stride, plane, pitch):
                view[...] = pixels
            size = n * plane
            acc, prod = acc_row[:size], prod_row[:size]
            views = [xp[ci, a, b, shift:][:size] for ci in range(c_in) for a, b, shift in shifts]
            grid = _grid(acc, n, plane, pitch, h_out, w_out)
            for c in range(c_out):
                _sum_taps(acc, prod, views, units[c], taps[c])
                if caught:
                    caught.clear()
                    with np.errstate(**caller):
                        _sum_taps(grid, _grid(prod, n, plane, pitch, h_out, w_out),
                                  [_grid(v, n, plane, pitch, h_out, w_out) for v in views],
                                  units[c], taps[c])
                out[b0 : b0 + n, c] = grid
    return out


def conv2d_backward(x, w, g_out, stride: int = 1, pad: int = 0, input_grad: bool = True):
    """Gradients of sum(g_out * conv2d_forward(x, w)) w.r.t. x and w.

    Works on the forward's flat planes (`_conv_planes`).  Per batch tile the
    cotangent is laid on the output grid of C_out rows, with zeros at the
    dropped positions.  For kernel offset (i, j), one `np.matmul` of those
    rows with the offset's (C_in, tile * plane) view of the input planes
    gives its weight gradient, and w[:, :, i, j].T times the rows is added
    into the same view of a set of gradient planes, which are read back into
    the input gradient one stride phase at a time.  Sums run in BLAS order,
    not in a fixed one; while x and w are finite, the terms of the dropped
    positions are exact zeros.  A weight gradient that holds a NaN is
    summed again over the output grid alone, so an inf pixel that only a
    dropped position reaches adds no 0 * inf.  With input_grad=False the
    input gradient is not computed and comes back as None.
    """
    x, w, h_out, w_out = _conv_geometry(x, w, stride, pad)
    g_out = np.asarray(g_out, dtype=DTYPE)
    batch, c_in = x.shape[:2]
    c_out, _, kh, kw = w.shape
    if g_out.shape != (batch, c_out, h_out, w_out):
        raise DimensionError(
            f"conv2d_backward cotangent shape {g_out.shape} != output shape "
            f"{(batch, c_out, h_out, w_out)}"
        )
    with _small_ufunc_buffer():
        xp, tile, plane, pitch, phases, shifts = _conv_planes(
            x, w, stride, pad, max(c_in * stride * stride, c_out))
        g_rows = np.zeros((c_out, tile * plane), dtype=DTYPE)
        g_xp = np.empty_like(xp) if input_grad else None
        g_x = np.empty_like(x) if input_grad else None
        g_w = np.zeros_like(w)
        for b0 in range(0, batch, tile):
            n = min(tile, batch - b0)
            for pixels, view in _pixels(x[b0 : b0 + n], xp, phases, stride, plane, pitch):
                view[...] = pixels
            size = n * plane
            rows = g_rows[:, :size]
            grid = _grid(rows, n, plane, pitch, h_out, w_out)
            grid[...] = g_out[b0 : b0 + n].transpose(1, 0, 2, 3)
            for (i, j), (a, b, shift) in zip(np.ndindex(kh, kw), shifts):
                g_w[:, :, i, j] += np.matmul(rows, xp[:, a, b, shift : shift + size].T)
            if input_grad:
                g_xp.fill(0.0)
                for (i, j), (a, b, shift) in zip(np.ndindex(kh, kw), shifts):
                    g_xp[:, a, b, shift : shift + size] += np.matmul(w[:, :, i, j].T, rows)
                for pixels, view in _pixels(g_x[b0 : b0 + n], g_xp, phases, stride, plane, pitch):
                    pixels[...] = view
    if np.isnan(g_w).any():
        # A zero cotangent at a dropped position times an inf pixel is NaN
        # where the naive loop, which multiplies output positions only, may
        # have none: take each tap's sum over the output grid alone.
        padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        for i, j in np.ndindex(kh, kw):
            taps = padded[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride]
            g_w[:, :, i, j] = np.tensordot(g_out, taps, axes=([0, 2, 3], [0, 2, 3]))
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
    batch, k = logits.shape
    if batch and not (0 <= labels.min() and labels.max() < k):
        raise DimensionError(f"labels must lie in [0, {k}) for {k} logits, "
                             f"got {labels.min()} .. {labels.max()}")
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


def finite_diff(f, point: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences (f(x + h e_i) - f(x - h e_i)) / (2h) of scalar f at point.

    Each coordinate is moved in place and put back bit for bit, also when f
    raises, so f may ignore its argument and read a live parameter through a
    closure.  point must be a float64 array: a converted copy would hide the
    moves from such an f.  f must stay finite at the probe points.
    """
    if h <= 0:
        raise DomainError(f"h must be positive, got {h}")
    if not (isinstance(point, np.ndarray) and point.dtype == DTYPE):
        raise DomainError(f"point must be a float64 array, got "
                          f"{getattr(point, 'dtype', type(point).__name__)}")
    fd = np.empty(point.shape, dtype=DTYPE)
    for i in range(point.size):
        orig = point.flat[i]
        try:
            point.flat[i] = orig + h
            fp = float(f(point))
            point.flat[i] = orig - h
            fm = float(f(point))
        finally:
            point.flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(f"f non-finite at perturbed coordinate {i}")
        fd.flat[i] = (fp - fm) / (2.0 * h)
    return fd


def finite_grad(grad: np.ndarray) -> np.ndarray:
    """An analytic gradient as float64; a non-finite entry raises EvaluationError."""
    grad = np.asarray(grad, dtype=DTYPE)
    if not np.isfinite(grad).all():
        raise EvaluationError("analytic gradient holds a non-finite entry")
    return grad


def finite_diff_check(f, point: np.ndarray, analytic_grad: np.ndarray, h: float = 1e-6) -> float:
    """Max over coordinates of |fd - analytic| / (|analytic| + 1e-12), fd being
    `finite_diff(f, point, h)`; a non-finite analytic entry raises EvaluationError."""
    analytic_grad = finite_grad(analytic_grad)
    if np.shape(point) != analytic_grad.shape:
        raise DimensionError(f"gradient shape {analytic_grad.shape} != point shape "
                             f"{np.shape(point)}")
    fd = finite_diff(f, point, h)
    return float(np.max(np.abs(fd - analytic_grad) / (np.abs(analytic_grad) + 1e-12),
                        initial=0.0))


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
