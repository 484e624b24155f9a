"""Diagonal state-space sequence machinery.

Continuous parameters (A, B) with step size delta are discretized by
zero-order hold:

    a_bar = exp(delta * A)
    b_bar = (delta * A)^-1 (exp(delta * A) - 1) * delta * B

with the analytic limit b_bar = delta * B taken when |delta * A| < 1e-8.
The discrete system is the linear recurrence

    h_t = a_bar h_{t-1} + b_bar x_t,      y_t = C h_t

which for time-invariant parameters is also the causal convolution of x with
the kernel (C b_bar, C a_bar b_bar, ..., C a_bar^{L-1} b_bar).  `ssm_scan` is
the plain sequential reference.  The streaming slow block in `hypernet` runs
the recurrence chunk by chunk: `linear_recurrence` and its adjoint
`linear_recurrence_backward` each take one chunk, with the per-step product
of decays replaced by cumulative sums in log space (safe because the decays
enter as exp(log_decay) with log_decay <= 0 for stable systems).
`chunk_plan` sizes the chunks so that those sums stay in exp's range; a
one-token chunk runs the plain recurrence, which needs no such bound.  The
sums over a chunk are blocked GEMMs against a triangle of ones (`_scan`; Dao
& Gu 2024 write a scan as a matmul against a lower-triangular mask).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, DomainError
from .tensor import DTYPE

ZOH_EPS = 1e-8
_CHUNK_LOG_LIMIT = 600.0  # exp() overflows around 709; stay clear
# rows per block of `_scan`: each block is summed by one GEMM against a triangle of ones
_SCAN_BLOCK = 16
_LOWER = np.tri(_SCAN_BLOCK)
_UPPER = np.ascontiguousarray(_LOWER.T)


def discretize_zoh(a, b, delta):
    """ZOH discretization, elementwise over broadcast-compatible arrays."""
    a = np.asarray(a, dtype=DTYPE)
    b = np.asarray(b, dtype=DTYPE)
    delta = np.asarray(delta, dtype=DTYPE)
    bad = ~(np.isfinite(delta) & (delta > 0.0))  # NaN fails both tests
    if bad.any():
        raise DomainError(f"delta must be finite and positive, got {float(delta[bad].flat[0])!r}")
    da = delta * a
    a_bar = np.exp(da)
    # (da)^-1 (exp(da) - 1) == expm1(da) / da; below ZOH_EPS the analytic
    # limit b_bar = delta * b applies
    small = np.abs(da) < ZOH_EPS
    safe = np.where(small, 1.0, da)
    phi = np.where(small, 1.0, np.expm1(da) / safe)
    b_bar = phi * delta * b
    return a_bar, b_bar


def _normalize_system(a_bar, b_bar, c, x):
    """Broadcast a scan system to x:(L,D), a/b:(L,D,N), c:(L,N).

    Returns (x2, a3, b3, c2, squeeze) where squeeze says whether the caller
    passed a scalar channel (1-D x) and wants 1-D output back.
    """
    x = np.asarray(x, dtype=DTYPE)
    squeeze = x.ndim == 1
    x2 = x[:, None] if squeeze else x
    if x2.ndim != 2:
        raise DimensionError(f"scan input must be (L,) or (L, D), got {x.shape}")
    length, channels = x2.shape

    def expand_param(p, name):
        p = np.asarray(p, dtype=DTYPE)
        if p.ndim == 0:
            p = p.reshape(1, 1)
        if p.ndim == 1:  # (N,)
            p = np.broadcast_to(p, (channels, p.shape[0]))
        if p.ndim == 2:  # (D, N) time-invariant
            p = np.broadcast_to(p[None], (length, *p.shape))
        if p.ndim != 3 or p.shape[0] != length or p.shape[1] != channels:
            raise DimensionError(
                f"{name} shape {np.asarray(p).shape} incompatible with input {x.shape}"
            )
        return p

    a3 = expand_param(a_bar, "a_bar")
    b3 = expand_param(b_bar, "b_bar")
    c = np.asarray(c, dtype=DTYPE)
    if c.ndim == 0:
        c = c.reshape(1)
    if c.ndim == 1:
        c2 = np.broadcast_to(c, (length, c.shape[0]))
    elif c.ndim == 2:
        c2 = c
    else:
        raise DimensionError(f"c must be (N,) or (L, N), got {c.shape}")
    if c2.shape[0] != length or c2.shape[1] != a3.shape[2]:
        raise DimensionError(
            f"c shape {c.shape} incompatible with state dim {a3.shape[2]} / length {length}"
        )
    return x2, a3, b3, c2, squeeze


def ssm_scan(a_bar, b_bar, c, x):
    """Reference sequential scan; per-step (selective) parameters allowed."""
    x2, a3, b3, c2, squeeze = _normalize_system(a_bar, b_bar, c, x)
    length, channels = x2.shape
    n = a3.shape[2]
    h = np.zeros((channels, n), dtype=DTYPE)
    y = np.empty((length, channels), dtype=DTYPE)
    for t in range(length):
        h = a3[t] * h + b3[t] * x2[t][:, None]
        y[t] = h @ c2[t]
    return y[:, 0] if squeeze else y


def ssm_conv_kernel(a_bar, b_bar, c, length: int):
    """Kernel (C b_bar, C a_bar b_bar, ..., C a_bar^{L-1} b_bar), shape (L, D)."""
    a = np.asarray(a_bar, dtype=DTYPE)
    b = np.asarray(b_bar, dtype=DTYPE)
    cc = np.asarray(c, dtype=DTYPE)
    if a.ndim == 3 or b.ndim == 3 or cc.ndim == 2:
        raise ContractError("ssm_conv requires time-invariant parameters")
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim == 1:
        a = a[None, :]
    b = np.broadcast_to(np.asarray(b, dtype=DTYPE), a.shape)
    cc = np.broadcast_to(cc.reshape(-1), (a.shape[1],))
    kernel = np.empty((length, a.shape[0]), dtype=DTYPE)
    power = np.ones_like(a)
    for s in range(length):
        kernel[s] = (power * b) @ cc
        power = power * a
    return kernel


def ssm_conv(a_bar, b_bar, c, x):
    """Causal convolution evaluation of a time-invariant system."""
    x = np.asarray(x, dtype=DTYPE)
    squeeze = x.ndim == 1
    x2 = x[:, None] if squeeze else x
    length = x2.shape[0]
    kernel = ssm_conv_kernel(a_bar, b_bar, c, length)
    if kernel.shape[1] == 1 and x2.shape[1] > 1:
        kernel = np.broadcast_to(kernel, (length, x2.shape[1]))
    if kernel.shape[1] != x2.shape[1]:
        raise DimensionError(
            f"kernel channels {kernel.shape[1]} != input channels {x2.shape[1]}"
        )
    y = np.zeros_like(x2)
    for s in range(length):
        y[s:] += kernel[: length - s] * x2[s]
    return y[:, 0] if squeeze else y


# -- chunked recurrence ------------------------------------------------------


def chunk_plan(amax: float, chunk: int) -> int:
    """Chunk length for a chunked scan whose decays satisfy |log_decay| <= amax.

    The chunk is capped so |cumsum(log_decay)| stays below the exp overflow
    range; where not even two tokens fit, it is one token, which
    `linear_recurrence` runs without exp(-S).
    """
    if amax * chunk > _CHUNK_LOG_LIMIT:
        chunk = max(1, int(_CHUNK_LOG_LIMIT / amax))
    return chunk


def _scan(x, out, reverse: bool = False):
    """Inclusive cumulative sum of x over axis 0 into out, from the end if reverse.

    out is C-contiguous and may be x.  Rows go in blocks of _SCAN_BLOCK, each
    summed by one batched GEMM against a triangle of ones (lower forward,
    upper in reverse), and the short block comes first forward and last in
    reverse.  Every block but the first (last) then adds the scan of the
    totals of the blocks before (after) it, which is the same scan one level
    up.  The terms are np.cumsum's, added in another order.
    """
    b = _SCAN_BLOCK
    c = x.shape[0]
    x2, o2 = x.reshape(c, -1), out.reshape(c, -1)
    part = c % b
    if reverse:
        tri, blocks, short = _UPPER, slice(0, c - part), slice(c - part, c)
    else:
        tri, blocks, short = _LOWER, slice(part, c), slice(0, part)
    if c >= b:
        np.matmul(tri, x2[blocks].reshape(-1, b, x2.shape[1]),
                  out=o2[blocks].reshape(-1, b, o2.shape[1]))
    if part:
        np.matmul(tri[:part, :part], x2[short], out=o2[short])
    if c > b:
        if reverse:  # block totals are first rows; carry into blocks 0 .. last-1
            totals, carried = o2[b::b], slice(0, c - (part or b))
        else:  # block totals are last rows; carry into blocks 1 .. last
            totals, carried = o2[(part or b) - 1 : c - 1 : b], slice(part or b, c)
        carry = _scan(totals, np.empty(totals.shape, dtype=DTYPE), reverse)
        target = o2[carried].reshape(-1, b, o2.shape[1])
        target += carry[:, None, :]
    return out


def linear_recurrence(decay, inp, hs) -> None:
    """h_t = exp(ld_t) h_{t-1} + inp_t over one chunk, in place.

    decay[t] = exp(S_t), S the inclusive cumsum of ld over the chunk (for a
    one-token chunk, exp(ld)).  hs[0] holds the state entering the chunk;
    hs[1:] receives the chunk's states.  A one-token chunk runs
    h = exp(ld) h_prev + inp; a longer one the factored form
        h_t = exp(S_t) * (h_prev + sum_{r<=t} exp(-S_r) inp_r),
    which needs exp(-S) finite, as `chunk_plan` sizes the chunk for.
    """
    if decay.shape[0] == 1:
        np.multiply(decay[0], hs[0], out=hs[1])
        hs[1] += inp[0]
    else:
        np.divide(inp, decay, out=hs[1:])
        _scan(hs, hs)
        hs[1:] *= decay


def linear_recurrence_backward(decay, lam, carry) -> None:
    """The adjoint of `linear_recurrence` over one chunk, in place.

    lam holds the cotangents g_h_t of the chunk's states and receives
    lambda_t = g_h_t + exp(ld_{t+1}) lambda_{t+1}, the gradient of inp_t;
    carry = exp(ld_e) lambda_e enters from the chunk after.  The gradient
    of the entering state is exp(ld_0) lambda_0, and that of ld_t is
    lambda_t exp(ld_t) h_{t-1}.  A one-token chunk adds the carry; a longer
    one runs the factored form
        lambda_t = (sum_{j>=t} exp(S_j) g_h_j + exp(S_end) carry) / exp(S_t).
    """
    if decay.shape[0] == 1:
        lam += carry
    else:
        lam *= decay
        _scan(lam, lam, reverse=True)
        lam += decay[-1] * carry
        lam /= decay
