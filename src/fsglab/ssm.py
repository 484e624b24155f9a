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
the plain sequential reference; `linear_recurrence` is the chunked form used
by the slow hypernetwork's reference block: it processes the sequence in
chunks, replacing the per-step product of decays with cumulative sums in log
space (safe because the decays enter as exp(log_decay) with log_decay <= 0
for stable systems; chunks whose log range would overflow fall back to
stepping).  `chunk_plan` holds that guard; the streaming slow block in
`hypernet` applies the same one.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, DomainError
from .tensor import DTYPE

ZOH_EPS = 1e-8
_CHUNK_LOG_LIMIT = 600.0  # exp() overflows around 709; stay clear


def discretize_zoh(a, b, delta):
    """ZOH discretization, elementwise over broadcast-compatible arrays."""
    a = np.asarray(a, dtype=DTYPE)
    b = np.asarray(b, dtype=DTYPE)
    delta = np.asarray(delta, dtype=DTYPE)
    if np.any(delta <= 0.0):
        raise DomainError(f"delta must be positive, got min {delta.min()!r}")
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


# -- chunked recurrence (the slow hypernetwork's reference block) -----------


def chunk_plan(amax: float, chunk: int):
    """(chunk, step) for a chunked scan whose decays satisfy |log_decay| <= amax.

    The chunk is capped so |cumsum(log_decay)| stays below the exp overflow
    range.  Above half that range the factored form cannot help, and the
    scan steps token by token instead (exp saturates safely).
    """
    if amax > 0.5 * _CHUNK_LOG_LIMIT:
        return 1, True
    if amax * chunk > _CHUNK_LOG_LIMIT:
        chunk = max(1, int(_CHUNK_LOG_LIMIT / amax))
    return chunk, False


def linear_recurrence(log_decay, inp, chunk: int = 128):
    """h_t = exp(log_decay_t) * h_{t-1} + inp_t over axis 0, h_{-1} = 0.

    Within a chunk the solution is factored as
        h_t = exp(S_t) * (h_prev + sum_{r<=t} exp(-S_r) inp_r),
    S the inclusive cumsum of log_decay, so each chunk costs a handful of
    vectorized passes instead of a Python-level step per element.
    """
    ld = np.asarray(log_decay, dtype=DTYPE)
    v = np.asarray(inp, dtype=DTYPE)
    if ld.shape != v.shape:
        raise DimensionError(f"log_decay shape {ld.shape} != input shape {v.shape}")
    total = ld.shape[0]
    out = np.empty_like(v)
    h_prev = np.zeros(v.shape[1:], dtype=DTYPE)
    chunk, step = chunk_plan(float(np.max(np.abs(ld))) if ld.size else 0.0, chunk)
    if step:
        for t in range(total):
            h_prev = np.exp(ld[t]) * h_prev + v[t]
            out[t] = h_prev
        return out
    for start in range(0, total, chunk):
        end = min(start + chunk, total)
        s = np.cumsum(ld[start:end], axis=0)
        np.exp(s, out=s)  # s is now the chunk-local decay product
        q = v[start:end] / s
        np.cumsum(q, axis=0, out=q)
        q += h_prev
        np.multiply(s, q, out=out[start:end])
        h_prev = out[end - 1]
    return out


def linear_recurrence_backward(log_decay, inp, h, g_h, chunk: int = 128, exp_log_decay=None):
    """Exact gradients of linear_recurrence w.r.t. (log_decay, inp).

    The adjoint lambda_t = g_h_t + exp(log_decay_{t+1}) lambda_{t+1} is the
    same recurrence run anti-causally, so it reuses the chunked forward.
    """
    ld = np.asarray(log_decay, dtype=DTYPE)
    g_h = np.asarray(g_h, dtype=DTYPE)
    total = ld.shape[0]
    if total == 0:
        return np.zeros_like(ld), np.zeros_like(ld)
    rev_decay = np.empty_like(ld)
    rev_decay[0] = 0.0
    rev_decay[1:] = ld[:0:-1]
    lam = linear_recurrence(rev_decay, g_h[::-1], chunk=chunk)[::-1].copy()
    eld = np.exp(ld) if exp_log_decay is None else exp_log_decay
    g_ld = np.empty_like(ld)
    g_ld[0] = 0.0  # initial state is zero
    np.multiply(lam[1:], eld[1:], out=g_ld[1:])
    g_ld[1:] *= h[:-1]
    return g_ld, lam
