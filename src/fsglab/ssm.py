"""Diagonal state-space sequence machinery.

Continuous parameters (A, B) with step size delta are discretized by
zero-order hold:

    a_bar = exp(delta * A)
    b_bar = (delta * A)^-1 (exp(delta * A) - 1) * delta * B = phi(delta * A) * delta * B

with phi(x) = expm1(x) / x from `zoh_phi`, which takes its Taylor series near
0 (phi(0) = 1, so b_bar = delta * B where A = 0).
The discrete system is the linear recurrence

    h_t = a_bar h_{t-1} + b_bar x_t,      y_t = C h_t

which for time-invariant parameters is also the causal convolution of x with
the kernel (C b_bar, C a_bar b_bar, ..., C a_bar^{L-1} b_bar).  `ssm_scan` is
the plain sequential reference, `ssm_conv` the convolution form.  Both read
their inputs by numpy broadcasting: x is (L, D), and a 1-D x is one channel
whose output is 1-D; a_bar and b_bar broadcast to (L, D, N) and c to (L, N),
N being the parameters' common last axis.  Shapes that do not broadcast raise
DimensionError.  The convolution form takes no time axis (no a_bar or b_bar
of rank 3, no c of rank 2; ContractError), and its kernel has the
parameters' own channels.  The streaming slow block in `hypernet` runs
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

# |x| below which `zoh_phi` takes the Taylor series; above it the difference
# (exp(x) - phi) / x loses at most about 1e-15 / |x| of phi' to cancellation
PHI_CUTOFF = 1e-2
_PHI_TERMS = 10  # series terms, to x^9: truncated below 1e-26 relative under PHI_CUTOFF
_CHUNK_LOG_LIMIT = 600.0  # exp() overflows around 709; stay clear
# rows per block of `_scan`: each block is summed by one GEMM against a triangle of ones
_SCAN_BLOCK = 16
_LOWER = np.tri(_SCAN_BLOCK)
_UPPER = np.ascontiguousarray(_LOWER.T)


def zoh_phi(x):
    """phi(x) = expm1(x) / x and phi'(x), elementwise in x's dtype; phi(0) = 1, phi'(0) = 1/2.

    Below |x| = PHI_CUTOFF both are Taylor series, sum_n x^n / (n + 1)! and
    sum_n (n + 1) x^n / (n + 2)!, by Horner's rule on the ratios of their
    coefficients; above it, expm1(x) / x and (exp(x) - phi) / x.
    """
    x = np.asarray(x)
    small = np.abs(x) < PHI_CUTOFF
    safe, t = np.where(small, 1.0, x), np.where(small, x, 0.0)
    p = q = 1.0
    for n in range(_PHI_TERMS - 1, 0, -1):
        p = 1.0 + t * p / (n + 1)
        q = 1.0 + t * q * (n + 1) / (n * (n + 2))
    phi = np.where(small, p, np.expm1(x) / safe)
    return phi, np.where(small, q / 2, (np.exp(x) - phi) / safe)


def discretize_zoh(a, b, delta):
    """ZOH discretization, elementwise over broadcast-compatible arrays."""
    a = np.asarray(a, dtype=DTYPE)
    b = np.asarray(b, dtype=DTYPE)
    delta = np.asarray(delta, dtype=DTYPE)
    bad = ~(np.isfinite(delta) & (delta > 0.0))  # NaN fails both tests
    if bad.any():
        raise DomainError(f"delta must be finite and positive, got {float(delta[bad].flat[0])!r}")
    da = delta * a
    return np.exp(da), zoh_phi(da)[0] * delta * b


def _system(a_bar, b_bar, c, x):
    """Read an oracle's inputs by the rule in the module docstring.

    Returns x as (L, D), a_bar and b_bar as (L, D, N), c as (L, N), and
    whether x was 1-D.  x None reads a convolution kernel's parameters:
    they must be time-invariant, and D is their own.
    """
    a, b, c = (np.asarray(p, dtype=DTYPE) for p in (a_bar, b_bar, c))
    if x is None and (a.ndim == 3 or b.ndim == 3 or c.ndim == 2):
        raise ContractError("ssm_conv requires time-invariant parameters")
    try:
        if x is None:  # one time step of the parameters' own channels
            x = np.zeros((1, *np.broadcast_shapes(a.shape[-2:-1], b.shape[-2:-1])))
        x = np.asarray(x, dtype=DTYPE)
        x2 = x[:, None] if x.ndim == 1 else x
        length, channels = x2.shape
        n = np.broadcast_shapes((1,), a.shape[-1:], b.shape[-1:], c.shape[-1:])
        a3, b3 = (np.broadcast_to(p, (length, channels, *n)) for p in (a, b))
        c2 = np.broadcast_to(c, (length, *n))
    except ValueError:
        raise DimensionError(
            f"x {np.shape(x)}, a_bar {a.shape}, b_bar {b.shape} and c {c.shape} do not "
            "broadcast to (L, D), (L, D, N), (L, D, N) and (L, N)") from None
    return x2, a3, b3, c2, x.ndim == 1


def ssm_scan(a_bar, b_bar, c, x):
    """Reference sequential scan; per-step (selective) parameters allowed."""
    x2, a3, b3, c2, squeeze = _system(a_bar, b_bar, c, x)
    h = np.zeros(a3.shape[1:], dtype=DTYPE)
    y = np.empty(x2.shape, dtype=DTYPE)
    for t in range(len(x2)):
        h = a3[t] * h + b3[t] * x2[t][:, None]
        y[t] = h @ c2[t]
    return y[:, 0] if squeeze else y


def ssm_conv_kernel(a_bar, b_bar, c, length: int):
    """Kernel (C b_bar, C a_bar b_bar, ..., C a_bar^{L-1} b_bar), one column per channel."""
    _, a3, b3, c2, _ = _system(a_bar, b_bar, c, None)
    a, b, cc = a3[0], b3[0], c2[0]
    kernel = np.empty((length, a.shape[0]), dtype=DTYPE)
    power = np.ones_like(a)
    for s in range(length):
        kernel[s] = (power * b) @ cc
        power = power * a
    return kernel


def ssm_conv(a_bar, b_bar, c, x):
    """Causal convolution evaluation of a time-invariant system."""
    x2, _, _, _, squeeze = _system(a_bar, b_bar, c, x)
    length = x2.shape[0]
    kernel = ssm_conv_kernel(a_bar, b_bar, c, length)
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
