"""Shared gradient-generating networks.

Two networks are shared by every binarized layer:

* fast net: a 2 -> H -> H -> 1 stack of linear maps (no activations) applied
  elementwise to (gradient, preprocessed-weight) scalar pairs;
* slow net: a sequence model over a layer's gradient history.  Each history
  scalar becomes a d-dimensional token through the 1 x d projection `w_a`,
  a learnable per-layer recognition embedding is prepended, and the model
  output's last xi tokens are projected to scalars by the d x 1 head `w_head`
  and reshaped to the layer's gradient shape.

The default slow model is a minimal selective state-space block:
in-projection to d_inner = expand * d, input-dependent (B, C, delta) with
delta kept positive through softplus, ZOH-discretized diagonal scan, a
sigmoid gate driven by a parallel projection of the tokens, out-projection
back to d, and a residual connection.  It runs as a streaming kernel over
chunks of the history (see the comment above `_chunk_spans`) on two exact
identities.  Every history token is a scalar times `w_a`, so the selective
terms are (T,) scalar sequences times fixed vectors (rank-1 tokens), and
the scan input, in its one form expm1(delta A) (v / A) w_t, needs no
phi = expm1(x) / x (delta cancels; a floor on a_log keeps A nonzero).  The
embedding token, which is not rank-1, takes phi from `ssm.zoh_phi`, the
stable phi and phi' of every ZOH step here.  The kernel starts at a decay
horizon: it skips the tokens whose decay product to the tail start is below
exp(-750), under the smallest float64 subnormal, so that their terms and
adjoints round to 0.0 (the bound is derived above `_chunk_spans`).  The
horizon keeps the walk before the tail short however long the history is,
and the chunk length is sized from the tokens it keeps.  Every chunk keeps explicit states and runs
the recurrence and its adjoint in `ssm.linear_recurrence[_backward]`, whose
scans over tokens are blocked GEMMs against a triangle of ones
(`ssm._scan`), and the per-token outer products with a fixed vector are GEMMs
against its block expansion (`_expansion`), exact because each output has
one nonzero term.  No (T, d) token array is built: the block keeps the
(T,) scales s_t.  The readout (C_t, y, gate, out-projection and residual)
runs inside the walk on each tail chunk's states, and the backward rebuilds
it from the states it recomputes, so no (xi, d_inner) or (xi, N) array
exists beyond one chunk's.  Each walk, forward and backward, runs in one
`tensor._small_ufunc_buffer` scope when d_inner * N is at least
`tensor._UFUNC_BUFFER` (`_walk_buffer`): numpy buffers a broadcast whose
contiguous inner run is shorter than its ufunc buffer, and the walk's
(c, 1, 1) x (d_inner, N) broadcasts have runs of d_inner * N values.  The
scope chunks the same elementwise operations differently, so it changes no
bits.  The oracle is the per-token reference in
`tests/slow_reference.py`.  An LSTM of hidden size d can replace the whole
block for ablations (no gate/projections around it); it steps through the
same (T,) scales and forms each token s_t w_a as it reaches it.  Its cache
keeps the activated gates (i, f, g, o) as one (T, 4d) array, and the cell
and hidden states as (T + 1, d) arrays whose row t holds step t's input
state, row 0 the zero start state.

All backward rules here are exact reverse-mode gradients of the forward
maps, with the token inputs treated as constants.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import DimensionError, DomainError, EmptyHistoryError
from .rng import Rng
from .ssm import PHI_CUTOFF, chunk_plan, linear_recurrence, linear_recurrence_backward, zoh_phi
from .tensor import _UFUNC_BUFFER, DTYPE, _small_ufunc_buffer, orthogonal_init

SCAN_CHUNK = 128  # default tokens per chunk of the selective slow net's streaming kernel
_A_LOG_FLOOR = -200.0  # a_log's floor where A is formed: |A| >= 1.4e-87, so M = v / A is finite
# log of a decay product that underflows in float64: below ln(smallest subnormal)
# = -744.4, with a margin for the rounding of the cumsum that bounds it
_LOG_UNDERFLOW = -750.0


def _sigmoid(x):
    # overflow in exp saturates to 0/1, which is the correct limit
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _softplus(x):
    return np.logaddexp(0.0, x)


# ---------------------------------------------------------------------------
# fast net
# ---------------------------------------------------------------------------


@dataclass
class FastNetParams:
    m1: np.ndarray  # (2, H)
    m2: np.ndarray  # (H, H)
    m3: np.ndarray  # (H, 1)
    b1: np.ndarray
    b2: np.ndarray
    b3: np.ndarray

    @classmethod
    def init(cls, rng: Rng, hidden: int) -> "FastNetParams":
        return cls(
            m1=orthogonal_init(2, hidden, rng),
            m2=orthogonal_init(hidden, hidden, rng),
            m3=orthogonal_init(hidden, 1, rng),
            b1=np.zeros(hidden, dtype=DTYPE),
            b2=np.zeros(hidden, dtype=DTYPE),
            b3=np.zeros(1, dtype=DTYPE),
        )


def _fast_collapse(p: FastNetParams):
    """The stack as one affine map: out = g * w[0] + w_hat * w[1] + c.

    Returns (m2 @ m3, w, c); the stack has no activations, so this is exact
    up to rounding and costs O(H^2) once instead of O(P * H^2).
    """
    m23 = p.m2 @ p.m3  # (H, 1)
    w = p.m1 @ m23  # (2, 1)
    c = p.b1 @ m23 + p.b2 @ p.m3 + p.b3  # (1,)
    return m23, w[:, 0], float(c[0])


def fast_forward(g: np.ndarray, w_hat: np.ndarray, p: FastNetParams) -> np.ndarray:
    """Map each (g_j, w_hat_j) pair through the shared linear stack."""
    g = np.asarray(g, dtype=DTYPE)
    w_hat = np.asarray(w_hat, dtype=DTYPE)
    if g.shape != w_hat.shape:
        raise DimensionError(f"fast_forward shapes differ: {g.shape} vs {w_hat.shape}")
    _, w, c = _fast_collapse(p)
    out = g * w[0]
    out += w_hat * w[1]
    out += c
    return out


def fast_backward(g, w_hat, p: FastNetParams, cotangent):
    """Gradients of sum(cotangent * fast_forward) w.r.t. the params, keyed `fast.<field>`.

    Every parameter gradient of the linear stack is a function of the two
    sums pairs.T @ cot and sum(cot), so the cost is O(P) plus O(H^2).
    """
    g = np.asarray(g, dtype=DTYPE)
    w_hat = np.asarray(w_hat, dtype=DTYPE)
    cot = np.asarray(cotangent, dtype=DTYPE)
    if cot.shape != g.shape:
        raise DimensionError(f"cotangent shape {cot.shape} != input shape {g.shape}")
    m23 = _fast_collapse(p)[0]
    co = cot.ravel()
    q = np.array([[g.ravel() @ co], [w_hat.ravel() @ co]])  # pairs.T @ cot, (2, 1)
    total = co.sum()
    h1_co = p.m1.T @ q + total * p.b1[:, None]  # h1.T @ cot, (H, 1)
    grads = {
        "fast.m3": p.m2.T @ h1_co + total * p.b2[:, None],  # h2.T @ cot
        "fast.b3": np.array([total]),
        "fast.m2": h1_co @ p.m3.T,
        "fast.b2": total * p.m3[:, 0],
        "fast.m1": q @ m23.T,
        "fast.b1": total * m23[:, 0],
    }
    return grads


# ---------------------------------------------------------------------------
# slow net parameter containers
# ---------------------------------------------------------------------------


@dataclass
class SelectiveSsmParams:
    w_in: np.ndarray  # (d, d_inner)
    w_gate: np.ndarray  # (d, d_inner)
    w_b: np.ndarray  # (d_inner, N)
    b_b: np.ndarray  # (N,)
    w_c: np.ndarray  # (d_inner, N)
    b_c: np.ndarray  # (N,)
    w_delta: np.ndarray  # (d_inner, 1)
    b_delta: np.ndarray  # (1,)
    a_log: np.ndarray  # (d_inner, N); A = -exp(a_log)
    w_out: np.ndarray  # (d_inner, d)

    @classmethod
    def init(cls, rng: Rng, d: int, n_state: int, expand: int) -> "SelectiveSsmParams":
        din = d * expand
        return cls(
            w_in=rng.normals((d, din)) / np.sqrt(d),
            w_gate=rng.normals((d, din)) / np.sqrt(d),
            w_b=rng.normals((din, n_state)) / np.sqrt(din),
            b_b=np.zeros(n_state, dtype=DTYPE),
            w_c=rng.normals((din, n_state)) / np.sqrt(din),
            b_c=np.zeros(n_state, dtype=DTYPE),
            w_delta=rng.normals((din, 1)) / np.sqrt(din),
            b_delta=np.zeros(1, dtype=DTYPE),
            # stable diagonal init: A = -(1..N) on every channel
            a_log=np.tile(np.log(np.arange(1, n_state + 1, dtype=DTYPE)), (din, 1)),
            w_out=rng.normals((din, d)) / np.sqrt(din),
        )


@dataclass
class LstmParams:
    w_x: np.ndarray  # (d, 4d) input-to-gates, gate order (i, f, g, o)
    w_h: np.ndarray  # (d, 4d) hidden-to-gates
    b: np.ndarray  # (4d,)

    @classmethod
    def init(cls, rng: Rng, d: int) -> "LstmParams":
        return cls(
            w_x=rng.normals((d, 4 * d)) / np.sqrt(d),
            w_h=rng.normals((d, 4 * d)) / np.sqrt(d),
            b=np.zeros(4 * d, dtype=DTYPE),
        )


def field_leaves(obj, prefix: str = ""):
    """(dotted name, value) of every leaf field of a (nested) dataclass, in field order."""
    out = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            out.extend(field_leaves(value, f"{prefix}{f.name}."))
        else:
            out.append((prefix + f.name, value))
    return out


def named_leaves(obj, prefix: str = ""):
    """(name, array) of the ndarray leaves of `field_leaves`; None and other types are skipped."""
    return [(name, v) for name, v in field_leaves(obj, prefix) if isinstance(v, np.ndarray)]


@dataclass
class HyperNetBundle:
    """Everything shared across layers: fast net, slow net, embeddings, projections."""

    fast_kind: str  # mlp | identity | off
    slow_kind: str  # selective-ssm | lstm | off
    fast: FastNetParams | None = None
    slow: SelectiveSsmParams | LstmParams | None = None
    lre: np.ndarray | None = None  # (n_layers, d)
    w_a: np.ndarray | None = None  # (1, d) token projection
    w_head: np.ndarray | None = None  # (d, 1) output head

    @classmethod
    def init(cls, rng: Rng, n_layers: int, fast_kind: str, slow_kind: str, fast_hidden: int,
             d: int, n_state: int, expand: int) -> "HyperNetBundle":
        """The kinds are those `TrainConfig.validate` accepts."""
        bundle = cls(fast_kind=fast_kind, slow_kind=slow_kind)
        if fast_kind == "mlp":
            bundle.fast = FastNetParams.init(rng.derive("fast-net"), fast_hidden)
        if slow_kind != "off":
            srng = rng.derive("slow-net")
            if slow_kind == "selective-ssm":
                bundle.slow = SelectiveSsmParams.init(srng, d, n_state, expand)
            else:
                bundle.slow = LstmParams.init(srng, d)
            erng = rng.derive("layer-embeddings")
            bundle.lre = 0.02 * erng.normals((n_layers, d))
            bundle.w_a = 0.02 * erng.normals((1, d))
            bundle.w_head = 0.02 * erng.normals((d, 1))
        return bundle

    def named_params(self):
        """(name, array) of every trainable array: `fast.*`, `slow.*`, lre, w_a, w_head."""
        return named_leaves(self)


# ---------------------------------------------------------------------------
# slow net forward/backward
# ---------------------------------------------------------------------------


def slow_forward_cached(layer_index: int, history, bundle: HyperNetBundle, out_shape,
                        chunk: int = SCAN_CHUNK):
    """Forward pass returning (output, cache) for reuse by the backward.

    `cache["tokens"]` has one entry per token, for either block: the (T,)
    scales [0, s_1, ...] (token 0 is the embedding row, token t >= 1 is
    s_t w_a).  `cache["sliced"]` is the block output on the last xi tokens,
    the head's input.

    For the selective block the cache holds, besides fixed-size vectors, (T,)
    sequences (the scales, delta and its pre-activation), the state entering
    every chunk and the sliced output, but no readout term (C_t, y, gate):
    the backward recomputes those per tail chunk.  It also records which
    numeric guards fired: `t0`, the tokens the decay horizon skipped;
    `chunk`, the chunk length after `chunk_plan`'s overflow guard (1 where
    even two tokens would overflow);
    and `walk`, the (start, end, small) chunks, small marking those with an
    ld above -PHI_CUTOFF, whose backward takes a_log's gradient through the
    scan input in one term.
    """
    xi = int(np.prod(out_shape))
    history = np.asarray(history, dtype=DTYPE).reshape(-1)
    if history.size == 0:
        raise EmptyHistoryError("slow net needs a non-empty history window")
    if not 0 <= layer_index < bundle.lre.shape[0]:
        raise IndexError(
            f"layer index {layer_index} out of range for {bundle.lre.shape[0]} embeddings"
        )
    if not np.isfinite(history).all():
        pos = int(np.flatnonzero(~np.isfinite(history))[0])
        raise DomainError(f"layer {layer_index}: non-finite gradient history "
                          f"at position {pos} ({history[pos]!r})")
    if history.size % xi != 0:
        raise DimensionError(
            f"history length {history.size} is not a multiple of xi={xi}"
        )
    block = _ssm_stream_forward if bundle.slow_kind == "selective-ssm" else _lstm_forward
    tokens = np.concatenate(([0.0], history))  # token 0 is not scaled
    sliced, cache = block(bundle.lre[layer_index], tokens, bundle.w_a, bundle.slow, chunk, xi)
    scalars = sliced @ bundle.w_head  # (xi, 1)
    cache.update(
        layer_index=layer_index, tokens=tokens, sliced=sliced, out_shape=tuple(out_shape),
    )
    return scalars[:, 0].reshape(out_shape), cache


def slow_forward(layer_index: int, history, bundle: HyperNetBundle, out_shape,
                 chunk: int = SCAN_CHUNK):
    return slow_forward_cached(layer_index, history, bundle, out_shape, chunk)[0]


def slow_backward(layer_index: int, history, bundle: HyperNetBundle, out_shape,
                  cotangent, cache=None, chunk: int = SCAN_CHUNK):
    """Exact gradients w.r.t. every slow-side parameter (incl. lre/w_a/w_head)."""
    if cache is None:
        _, cache = slow_forward_cached(layer_index, history, bundle, out_shape, chunk)
    cot = np.asarray(cotangent, dtype=DTYPE)
    if cot.shape != cache["out_shape"]:
        raise DimensionError(
            f"cotangent shape {cot.shape} != output shape {cache['out_shape']}"
        )
    xi = int(np.prod(cache["out_shape"]))
    gs = cot.reshape(xi, 1)
    grads = {"w_head": np.einsum("td,to->do", cache["sliced"], gs)}
    g_tail = gs @ bundle.w_head.T  # cotangent of the block output's last xi tokens
    block = _ssm_stream_backward if bundle.slow_kind == "selective-ssm" else _lstm_backward
    g_first, g_w_a = block(g_tail, bundle.slow, bundle.w_a, cache, grads)
    g_lre = np.zeros_like(bundle.lre)
    g_lre[cache["layer_index"]] = g_first
    grads["lre"] = g_lre
    grads["w_a"] = g_w_a[None, :]
    return grads


# The production selective block streams the history in chunks (Gu & Dao
# 2023, section 3.3.2; Chen et al. 2016 checkpointing applied to the scan):
# the forward keeps (T,) scalar sequences plus the state entering every
# chunk, and the backward walks the chunks in reverse, recomputing each one
# from its boundary state.  Two exact identities keep the per-token
# (d_inner, N) work small (Dao & Gu 2024 turn such structure into GEMMs):
#
# * Rank-1 tokens.  Token t >= 1 is s_t w_a for a history scalar s_t, so
#   with v = w_a w_in: u_t = s_t v, B_t = s_t (v w_b) + b_b, C_t likewise,
#   and draw_t = s_t (v w_delta) + b_delta.  No (T, d_inner) or (T, N) array
#   is built, and the gradients into w_a, w_in, w_b, w_c and w_delta are
#   sums over scalar sequences.  Token 0, the layer's embedding row, is not
#   of that form: it runs alone as a one-token prefix, h_0 = inp_0, with
#   phi and phi' from `ssm.zoh_phi`.
# * delta cancels in the scan input.  With ld_t = delta_t A,
#   inp_t = phi(ld_t) delta_t u_t (x) B_t, phi(x) = expm1(x) / x, equals
#   expm1(ld_t) * M * w_t with M = v / A fixed and w_t = s_t B_t of shape (N,).
#   It is the only form: the floor on a_log keeps A nonzero.  Then
#   d inp_t / d delta_t = exp(ld_t) v (x) w_t.  a_log's gradient from inp_t
#   has a share through ld and one, -M lambda_t expm1(ld_t) w_t, through M;
#   they cancel to about 1e-16 / |ld| and sum to M lambda_t psi(ld_t) w_t,
#   psi(x) = x^2 phi'(x).  A chunk with an ld above -PHI_CUTOFF (a small-|ld|
#   chunk) takes that one term; every other chunk sums the cheaper two shares.
#
# The decay horizon.  On every channel ld_t <= ld_top_t = delta_t max(A) <= 0,
# so token t reaches h_{tail0-1}, the state entering the tail, through a
# decay product below exp(R_t), R_t = sum_{j=t+1}^{tail0-1} ld_top_j.
# `_horizon` counts the leading tokens t0 with R_t < _LOG_UNDERFLOW = -750,
# below ln(smallest subnormal) = -744.4.  What they add to any state the head
# reads, and the adjoint that flows back to them, carry a factor below
# e^-750 ~ 2e-326: a token-by-token float64 evaluation rounds those products
# to 0.0 for terms of ordinary size, and they are far below the rounding of
# any term they scale.  The kernel starts at t0 from a zero state; g_delta is
# 0 before t0 and, when t0 > 0, token 0 gets a zero carry, so the lre
# gradient is 0.0.
#
# Chunks start at max(t0, 1) and at the tail start, so none straddles the
# tail; the forward fixes this walk of (start, end, small) chunks once and
# the backward replays it in reverse.  Every chunk keeps explicit states and
# runs lambda as a reverse scan.  A chunk before the tail only carries the
# state on (g_h = 0 there).  A tail chunk also computes its rows of the
# readout (C_t, y, gate, out-projection, residual) from its states in
# `_readout`: the forward writes them into the output, and the backward,
# which recomputes the same states, rebuilds them to seed g_h and to add the
# chunk's share of the head-side gradients.  The horizon bounds the walk
# before the tail to about 750 / (delta |max(A)|) tokens for a typical
# delta, whatever the history length.
# chunk_plan is sized from delta over the tokens the kernel keeps, so a
# dropped token cannot force one-token chunks.
#
# The chunks avoid numpy's two slow loops.  Their states and reverse adjoint
# scan are `ssm.linear_recurrence` and `ssm.linear_recurrence_backward`, one
# call per chunk, which sum over tokens in `ssm._scan`: blocks of rows times
# a triangle of ones in one batched GEMM, then each block adds the scanned
# totals of the blocks before it (the same terms as np.cumsum in another
# order, about 1e-15 relative).  The product r_t = M (x) w_t broadcasts
# along the short N axis; it is w @ E instead, with E the fixed
# (N, d_inner N) block expansion of M.  Each column of E has one nonzero
# entry, so every output is one product plus exact zeros, bit-identical to
# the broadcast.
#
# Each walk, forward and backward, runs inside one `_walk_buffer` scope (the
# module docstring says why).  It is entered once per walk, not per op, since
# an entry costs 3.6 us, more than a small chunk's broadcast saves (one Xeon
# core); the horizon, softplus, the T-long sigmoids and token 0 run at the
# caller's buffer.
# The oracle, `tests/slow_reference.py`, steps the scan token by token.


def _chunk_spans(start: int, tail0: int, total: int, chunk: int):
    """(start, end) of each chunk of tokens start..total-1, split at the tail start tail0."""
    spans = [(s, min(s + chunk, tail0)) for s in range(start, tail0, chunk)]
    return spans + [(s, min(s + chunk, total)) for s in range(tail0, total, chunk)]


def _horizon(delta, a_top: float, tail0: int) -> int:
    """t0, the number of leading tokens t with R_t < _LOG_UNDERFLOW (the comment above).

    R_t is a reverse cumsum of ld_top over tokens t+1 .. tail0-1; each token
    adds a term <= 0, so R is non-decreasing in t and the count is a prefix.
    """
    reach = np.cumsum((delta[1:tail0] * a_top)[::-1])[::-1]  # reach[t] = R_t, t = 0 .. tail0-2
    return int(np.count_nonzero(reach < _LOG_UNDERFLOW))


def _walk_buffer(a):
    """`tensor._small_ufunc_buffer` for a walk whose inner run d_inner * N reaches
    `_UFUNC_BUFFER`, else the caller's buffer: below that size numpy buffers the
    walk's broadcasts at either buffer, and the smaller one only adds refills."""
    return _small_ufunc_buffer() if a.size >= _UFUNC_BUFFER else nullcontext()


def _first_token(u0, b0, delta0, a):
    """Token 0 alone (h_{-1} = 0): ld = delta_0 A, phi(ld), phi'(ld) and h_0 = inp_0."""
    ld = delta0 * a
    phi, dphi = zoh_phi(ld)
    return ld, phi, dphi, phi * np.multiply.outer(delta0 * u0, b0)


class _ChunkTerms:
    """The scan over tokens 1..T-1 as scalar sequences and fixed vectors, with chunk scratch.

    `weights(s, e)` is the (2, e - s) stack (s_t^2, s_t) of a chunk's tokens,
    so w_t = s_t B_t = weights[:, t] @ bb with bb = (v w_b, b_b); `w_sums`
    turns token sums of (d_inner, N) terms weighted by those rows into sums
    weighted by w_t.  M = v / A, and e_m expands it for the GEMM form of r_t.
    """

    def __init__(self, sc, delta, v, p: SelectiveSsmParams, a, chunk: int):
        self.sc, self.delta, self.a = sc, delta, a
        self.bb = np.stack((v @ p.w_b, p.b_b))
        self.m = v[:, None] / a
        self.e_m = _expansion(self.m, a.shape[1])  # w @ e_m = M (x) w
        self.bufs = np.empty((5, chunk) + a.shape, dtype=DTYPE)

    def weights(self, s: int, e: int):
        """(s_t^2, s_t) of tokens s..e-1, shape (2, e - s)."""
        sc = self.sc[s:e]
        return np.stack((sc * sc, sc))

    def w_sums(self, p):
        """(..., 2, d_inner * N) sums over `weights` -> (..., d_inner, N) sums weighted by w_t."""
        p = p.reshape(p.shape[:-2] + (2,) + self.a.shape)
        return np.einsum("...kcn,kn->...cn", p, self.bb)

    def scan(self, s: int, e: int):
        """ld, decay = exp(S) (S = A * cumsum(delta), the inclusive cumsum of ld),
        F = expm1(ld), r = M (x) w_t and inp = F * r."""
        ld, decay, f, r, inp = self.bufs[:, : e - s]
        dl = self.delta[s:e]
        np.multiply(dl[:, None, None], self.a, out=ld)
        np.multiply(np.cumsum(dl)[:, None, None], self.a, out=decay)
        np.exp(decay, out=decay)
        np.expm1(ld, out=f)
        np.matmul(self.weights(s, e).T @ self.bb, self.e_m, out=r.reshape(e - s, -1))
        np.multiply(f, r, out=inp)
        return ld, decay, f, r, inp


def _expansion(x, n: int):
    """(n, d_inner * n) E with (w @ E)[t] = (x * w[t]).ravel(), for x of shape (d_inner, n).

    Each column of E has one nonzero entry, so the GEMM adds exact zeros to
    one product and equals the broadcast bit for bit.
    """
    return (np.eye(n)[:, None, :] * x).reshape(n, -1)


def _readout(sc, hs, v, w_a: np.ndarray, p: SelectiveSsmParams):
    """A tail chunk's readout terms from its scales sc and states hs = h_s .. h_{e-1}:
    C_t = s_t (v w_c) + b_c, y_t = h_t C_t, the tokens s_t w_a and the gate."""
    c_t = np.multiply.outer(sc, v @ p.w_c)
    c_t += p.b_c
    y = np.matmul(hs, c_t[:, :, None])[..., 0]
    tail = np.multiply.outer(sc, w_a[0])
    return c_t, y, tail, _sigmoid(tail @ p.w_gate)


def _ssm_stream_forward(emb: np.ndarray, sc: np.ndarray, w_a: np.ndarray,
                        p: SelectiveSsmParams, chunk: int, xi: int):
    """Block output on the last xi tokens and the backward's cache; token t >= 1 is sc[t] w_a."""
    total = sc.shape[0]
    tail0 = total - xi
    u0 = emb @ p.w_in
    v = w_a[0] @ p.w_in
    draw = sc * (v @ p.w_delta[:, 0])
    draw[0] = u0 @ p.w_delta[:, 0]
    draw += p.b_delta[0]
    delta = _softplus(draw)
    a = -np.exp(np.maximum(p.a_log, _A_LOG_FLOOR))  # (din, N), negative
    a_top = float(a.max())
    t0 = _horizon(delta, a_top, tail0)
    # the overflow guard, on max |ld| over the tokens the kernel walks (token 0 when t0 = 0)
    chunk = chunk_plan(float(delta[t0:].max()) * float(-a.min()), chunk)
    terms = _ChunkTerms(sc, delta, v, p, a, chunk)
    # (start, end, small) per chunk, small if some ld is above -PHI_CUTOFF: fl(delta * A)
    # is monotone in delta and A, so min(delta) * max(A) is max(ld); a NaN delta is small
    walk = [(s, e, not float(delta[s:e].min()) * a_top <= -PHI_CUTOFF)
            for s, e in _chunk_spans(max(t0, 1), tail0, total, chunk)]
    bounds = np.empty((len(walk),) + a.shape, dtype=DTYPE)  # state entering each chunk
    states = np.empty((chunk + 1,) + a.shape, dtype=DTYPE)
    out = np.empty((xi, w_a.shape[1]), dtype=DTYPE)
    if t0 == 0:  # h_0 = inp_0
        h = _first_token(u0, u0 @ p.w_b + p.b_b, delta[0], a)[3]
    else:  # the horizon passed token 0
        h = np.zeros(a.shape, dtype=DTYPE)
    with _walk_buffer(a):
        for k, (s, e, _) in enumerate(walk):
            bounds[k] = h
            _, decay, _, _, inp = terms.scan(s, e)
            hs = states[: e - s + 1]
            hs[0] = h
            linear_recurrence(decay, inp, hs)
            h = hs[-1].copy()
            if s >= tail0:
                _, y, tail, gate = _readout(sc[s:e], hs[1:], v, w_a, p)
                y *= gate
                rows = out[s - tail0 : e - tail0]
                np.matmul(y, p.w_out, out=rows)
                rows += tail  # residual
    cache = dict(emb=emb, u0=u0, v=v, draw=draw, delta=delta, a=a, t0=t0, chunk=chunk,
                 walk=walk, bounds=bounds)
    return out, cache


def _ssm_stream_backward(g_tail: np.ndarray, p: SelectiveSsmParams, w_a: np.ndarray, cache,
                         grads):
    """Gradients of token 0 and of w_a from the cotangent of the last xi block outputs.

    Per chunk, in reverse, the adjoint lambda_t = g_h_t + exp(ld_{t+1}) lambda_{t+1}
    enters as carry = exp(ld_e) lambda_e from the chunk after, and ld's
    gradient with M held fixed is g_ld_t = lambda_t exp(ld_t) (h_{t-1} + M w_t).
    A small-|ld| chunk takes a_log's share through inp in one term (the comment
    above `_chunk_spans`), so its g_a keeps only the decay's lambda_t exp(ld_t) h_{t-1}.
    """
    sc, delta, a, u0, v = (cache[k] for k in ("tokens", "delta", "a", "u0", "v"))
    bounds, t0, chunk, walk = (cache[k] for k in ("bounds", "t0", "chunk", "walk"))
    total, xi = sc.shape[0], g_tail.shape[0]
    tail0 = total - xi

    terms = _ChunkTerms(sc, delta, v, p, a, chunk)
    states = np.empty((chunk + 1,) + a.shape, dtype=DTYPE)  # h_{s-1} .. h_{e-1}
    lam_buf = np.empty((chunk,) + a.shape, dtype=DTYPE)
    a_flat = a.ravel()
    g_delta = np.empty(total, dtype=DTYPE)
    g_delta[:t0] = 0.0  # before the horizon
    g_a = np.zeros(a.shape, dtype=DTYPE)  # through ld = delta A
    g_m = np.zeros((2,) + a.shape, dtype=DTYPE)  # into M, from [0] other and [1] small-|ld| chunks
    g_psi = np.zeros(a.shape, dtype=DTYPE)  # sum_t lambda_t psi(ld_t) w_t, small-|ld| chunks
    g_w = np.zeros((2,) + a.shape[1:], dtype=DTYPE)  # sum_t weights[:, t] dL/dw_t
    g_w_out = np.zeros(p.w_out.shape, dtype=DTYPE)
    g_w_gate = np.zeros(p.w_gate.shape, dtype=DTYPE)
    g_cv = np.zeros(a.shape[1], dtype=DTYPE)  # sum_t s_t dL/dC_t
    g_bc = np.zeros(a.shape[1], dtype=DTYPE)  # sum_t dL/dC_t
    g_w_a = np.zeros(w_a.shape[1], dtype=DTYPE)  # through the tail tokens s_t w_a
    carry = np.zeros(a.shape, dtype=DTYPE)
    with _walk_buffer(a):
        for k in range(len(walk) - 1, -1, -1):
            s, e, small = walk[k]
            c = e - s
            ws = terms.weights(s, e)
            ld, decay, f, r, inp = terms.scan(s, e)
            hs = states[: c + 1]
            hs[0] = bounds[k]
            linear_recurrence(decay, inp, hs)
            lam = lam_buf[:c]
            if s >= tail0:
                c_t, y, tail, gate = _readout(sc[s:e], hs[1:], v, w_a, p)
                g = g_tail[s - tail0 : e - tail0]
                g_y = g @ p.w_out.T  # the gradient into y * gate
                g_z = g_y * y
                g_z *= gate
                g_z *= 1.0 - gate
                g_w_gate += tail.T @ g_z
                g_tokens = g_z @ p.w_gate.T
                g_tokens += g  # residual branch
                g_w_a += sc[s:e] @ g_tokens
                y *= gate
                g_w_out += y.T @ g
                g_y *= gate
                g_c = np.matmul(g_y[:, None, :], hs[1:])[:, 0]
                g_cv += sc[s:e] @ g_c
                g_bc += g_c.sum(axis=0)
                np.einsum("tc,tn->tcn", g_y, c_t, out=lam)  # g_h
            else:  # g_h = 0 before the tail
                lam[...] = 0.0
            linear_recurrence_backward(decay, lam, carry)
            eld = np.add(f, 1.0, out=decay)  # exp(ld)
            carry = eld[0] * lam[0]
            g_ld = np.add(hs[:c], r, out=inp)
            g_ld *= eld
            g_ld *= lam
            g2 = g_ld.reshape(c, -1)
            g_delta[s:e] = g2 @ a_flat
            if small:  # a_log's share through inp in one term; g_a keeps the decay's
                lpsi = ld * ld * zoh_phi(ld)[1] * lam
                g_psi += terms.w_sums(ws @ lpsi.reshape(c, -1))
                g2 = (eld * hs[:c] * lam).reshape(c, -1)
            g_a += (delta[s:e] @ g2).reshape(a.shape)
            lf = np.multiply(lam, f, out=lam).reshape(c, -1)  # lambda_t F_t, the gradient into r_t
            pw = ws @ lf
            g_m[int(small)] += terms.w_sums(pw)
            g_w += (pw.reshape((2,) + a.shape) * terms.m).sum(axis=1)

    # token 0 receives lambda_0 = carry (0 past the horizon) and has no decay term (h_{-1} = 0)
    if t0:
        carry = np.zeros(a.shape, dtype=DTYPE)
    b0 = u0 @ p.w_b + p.b_b
    _, phi0, g_ld0, _ = _first_token(u0, b0, delta[0], a)
    g_ld0 *= carry
    g_ld0 *= np.multiply.outer(delta[0] * u0, b0)
    lp = carry * phi0
    lpb = lp @ b0
    g_delta[0] = np.vdot(g_ld0, a) + u0 @ lpb
    g_a += delta[0] * g_ld0
    g_u0 = delta[0] * lpb
    g_b0 = delta[0] * (u0 @ lp)

    # softplus' on token 0 and the kept tokens; g_delta is 0 on the dropped ones
    draw, kept = cache["draw"], slice(max(t0, 1), total)
    g_draw = g_delta
    g_draw[0] *= _sigmoid(draw[:1])[0]
    g_draw[kept] *= _sigmoid(draw[kept])
    g_dv = sc @ g_draw  # sc[0] = 0: token 0 is not rank-1
    g_alog = g_a * a  # A = -exp(a_log)
    g_alog += (g_psi - g_m[0]) * terms.m  # M = v / A
    g_alog[p.a_log < _A_LOG_FLOOR] = 0.0  # A is constant below the floor
    g_v = (p.w_b @ g_w[0] + p.w_c @ g_cv + p.w_delta[:, 0] * g_dv
           + (g_m.sum(axis=0) / a).sum(axis=1))
    g_u0 += p.w_b @ g_b0 + p.w_delta[:, 0] * g_draw[0]
    grads["slow.a_log"] = g_alog
    grads["slow.w_b"] = np.multiply.outer(v, g_w[0]) + np.multiply.outer(u0, g_b0)
    grads["slow.b_b"] = g_w[1] + g_b0
    grads["slow.w_c"] = np.multiply.outer(v, g_cv)
    grads["slow.b_c"] = g_bc
    grads["slow.w_delta"] = (v * g_dv + u0 * g_draw[0])[:, None]
    grads["slow.b_delta"] = np.array([g_draw.sum()])
    grads["slow.w_in"] = np.multiply.outer(cache["emb"], g_u0) + np.multiply.outer(w_a[0], g_v)
    grads["slow.w_out"] = g_w_out
    grads["slow.w_gate"] = g_w_gate
    return p.w_in @ g_u0, p.w_in @ g_v + g_w_a


def _lstm_forward(emb: np.ndarray, sc: np.ndarray, w_a: np.ndarray, p: LstmParams,
                  chunk: int, xi: int):
    """Hidden states on the last xi tokens and the backward's cache, as `_ssm_stream_forward`.

    Token 0 is emb and token t >= 1 is sc[t] w_a, formed when the step reaches
    it.  The LSTM steps one token at a time, so chunk is unused.
    """
    total, d = sc.shape[0], emb.shape[0]
    gates = np.empty((total, 4 * d), dtype=DTYPE)
    tanh_c = np.empty((total, d), dtype=DTYPE)
    cells = np.zeros((total + 1, d), dtype=DTYPE)
    hidden = np.zeros((total + 1, d), dtype=DTYPE)
    for t in range(total):
        token = sc[t] * w_a[0] if t else emb
        gsum = token @ p.w_x + hidden[t] @ p.w_h + p.b
        gates[t] = _sigmoid(gsum)
        gates[t, 2 * d : 3 * d] = np.tanh(gsum[2 * d : 3 * d])
        i, f, g, o = gates[t].reshape(4, d)
        cells[t + 1] = f * cells[t] + i * g
        tanh_c[t] = np.tanh(cells[t + 1])
        hidden[t + 1] = o * tanh_c[t]
    return hidden[-xi:], dict(emb=emb, gates=gates, c=cells, tanh_c=tanh_c, hidden=hidden)


def _lstm_backward(g_tail: np.ndarray, p: LstmParams, w_a: np.ndarray, cache, grads):
    """Gradients of token 0 and of w_a from the cotangent of the last xi hidden states."""
    sc, emb = cache["tokens"], cache["emb"]
    total, d = sc.shape[0], emb.shape[0]
    tail0 = total - g_tail.shape[0]
    gates, c, tanh_c, hidden = cache["gates"], cache["c"], cache["tanh_c"], cache["hidden"]
    g_w_x, g_w_h, g_b = (np.zeros_like(a) for a in (p.w_x, p.w_h, p.b))
    g_tokens = np.empty((total, d), dtype=DTYPE)
    g_h = g_c = np.zeros(d, dtype=DTYPE)  # rebound, never written in place
    pre = np.empty(4 * d, dtype=DTYPE)  # the gate pre-activations' gradient, (i, f, g, o)
    pre_i, pre_f, pre_g, pre_o = pre.reshape(4, d)
    for t in range(total - 1, -1, -1):
        if t >= tail0:
            g_h = g_h + g_tail[t - tail0]
        i, f, g, o = gates[t].reshape(4, d)
        pre_o[:] = g_h * tanh_c[t] * o * (1.0 - o)
        g_c = g_c + g_h * o * (1.0 - tanh_c[t] ** 2)
        pre_i[:] = g_c * g * i * (1.0 - i)
        pre_f[:] = g_c * c[t] * f * (1.0 - f)
        pre_g[:] = g_c * i * (1.0 - g ** 2)
        g_c = g_c * f
        g_w_x += np.outer(sc[t] * w_a[0] if t else emb, pre)
        g_w_h += np.outer(hidden[t], pre)
        g_b += pre
        g_tokens[t] = pre @ p.w_x.T
        g_h = pre @ p.w_h.T
    grads.update({"slow.w_x": g_w_x, "slow.w_h": g_w_h, "slow.b": g_b})
    return g_tokens[0], np.einsum("t,td->d", sc[1:], g_tokens[1:])

