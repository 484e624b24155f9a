"""Shared gradient-generating networks.

Two networks are shared by every binarized layer:

* fast net: a 2 -> H -> H -> 1 stack of linear maps (no activations) applied
  elementwise to (gradient, preprocessed-weight) scalar pairs;
* slow net: a sequence model over a layer's gradient history.  Each history
  scalar becomes a d-dimensional token through the 1 x d projection `w_a`,
  a learnable per-layer recognition embedding is prepended, and the model
  output's last xi tokens are projected to scalars by the d x 1 head `w_b`
  and reshaped to the layer's gradient shape.

The default slow model is a minimal selective state-space block:
in-projection to d_inner = expand * d, input-dependent (B, C, delta) with
delta kept positive through softplus, ZOH-discretized diagonal scan, a
sigmoid gate driven by a parallel projection of the tokens, out-projection
back to d, and a residual connection.  It runs as a streaming kernel over
chunks of the history (see the comment above `_ChunkTerms`); its oracle is
the per-token reference in `tests/slow_reference.py`.  An LSTM of hidden
size d can replace the whole block for ablations (no gate/projections
around it).

All backward rules here are exact reverse-mode gradients of the forward
maps, with the token inputs treated as constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyHistoryError
from .rng import Rng
from .ssm import chunk_plan
# unused here, but perfbench/tracer.py wraps these bindings and `--trace 1` fails without them
from .ssm import linear_recurrence, linear_recurrence_backward  # noqa: F401
from .tensor import DTYPE, orthogonal_init

_LD_CLAMP = 1e-12  # ld is clamped to <= -_LD_CLAMP


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

    def named_arrays(self):
        return [
            ("fast.m1", self.m1),
            ("fast.m2", self.m2),
            ("fast.m3", self.m3),
            ("fast.b1", self.b1),
            ("fast.b2", self.b2),
            ("fast.b3", self.b3),
        ]


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
    """Gradients of sum(cotangent * fast_forward) w.r.t. params and inputs.

    Every parameter gradient of the linear stack is a function of the two
    sums pairs.T @ cot and sum(cot), so the cost is O(P) plus O(H^2).
    """
    g = np.asarray(g, dtype=DTYPE)
    w_hat = np.asarray(w_hat, dtype=DTYPE)
    cot = np.asarray(cotangent, dtype=DTYPE)
    if cot.shape != g.shape:
        raise DimensionError(f"cotangent shape {cot.shape} != input shape {g.shape}")
    m23, w, _ = _fast_collapse(p)
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
    return grads, cot * w[0], cot * w[1]


# ---------------------------------------------------------------------------
# slow net parameter containers
# ---------------------------------------------------------------------------


@dataclass
class SelectiveSsmParams:
    d: int
    n_state: int
    expand: int
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

    @property
    def d_inner(self) -> int:
        return self.d * self.expand

    @classmethod
    def init(cls, rng: Rng, d: int, n_state: int, expand: int) -> "SelectiveSsmParams":
        din = d * expand
        return cls(
            d=d, n_state=n_state, expand=expand,
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

    def named_arrays(self):
        return [
            ("slow.w_in", self.w_in),
            ("slow.w_gate", self.w_gate),
            ("slow.w_b", self.w_b),
            ("slow.b_b", self.b_b),
            ("slow.w_c", self.w_c),
            ("slow.b_c", self.b_c),
            ("slow.w_delta", self.w_delta),
            ("slow.b_delta", self.b_delta),
            ("slow.a_log", self.a_log),
            ("slow.w_out", self.w_out),
        ]


@dataclass
class LstmParams:
    d: int
    w_x: np.ndarray  # (d, 4d) input-to-gates, gate order (i, f, g, o)
    w_h: np.ndarray  # (d, 4d) hidden-to-gates
    b: np.ndarray  # (4d,)

    @classmethod
    def init(cls, rng: Rng, d: int) -> "LstmParams":
        return cls(
            d=d,
            w_x=rng.normals((d, 4 * d)) / np.sqrt(d),
            w_h=rng.normals((d, 4 * d)) / np.sqrt(d),
            b=np.zeros(4 * d, dtype=DTYPE),
        )

    def named_arrays(self):
        return [("slow.w_x", self.w_x), ("slow.w_h", self.w_h), ("slow.b", self.b)]


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
        if fast_kind not in ("mlp", "identity", "off"):
            raise ValueError(f"unknown fast_kind {fast_kind!r}")
        if slow_kind not in ("selective-ssm", "lstm", "off"):
            raise ValueError(f"unknown slow_kind {slow_kind!r}")
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
        """Stable-ordered (name, array) pairs of every trainable array."""
        out = []
        if self.fast is not None:
            out.extend(self.fast.named_arrays())
        if self.slow is not None:
            out.extend(self.slow.named_arrays())
            out.append(("lre", self.lre))
            out.append(("w_a", self.w_a))
            out.append(("w_head", self.w_head))
        return out


# ---------------------------------------------------------------------------
# slow net forward/backward
# ---------------------------------------------------------------------------


def _build_tokens(layer_index: int, history: np.ndarray, bundle: HyperNetBundle):
    history = np.asarray(history, dtype=DTYPE).reshape(-1)
    if history.size == 0:
        raise EmptyHistoryError("slow net needs a non-empty history window")
    if not 0 <= layer_index < bundle.lre.shape[0]:
        raise IndexError(
            f"layer index {layer_index} out of range for {bundle.lre.shape[0]} embeddings"
        )
    tokens = np.empty((history.size + 1, bundle.lre.shape[1]), dtype=DTYPE)
    tokens[0] = bundle.lre[layer_index]
    tokens[1:] = history[:, None] * bundle.w_a  # scalar token projection
    return history, tokens


def slow_forward_cached(layer_index: int, history, bundle: HyperNetBundle, out_shape,
                        chunk: int = 128):
    """Forward pass returning (output, cache) for reuse by the backward."""
    xi = int(np.prod(out_shape))
    history, tokens = _build_tokens(layer_index, history, bundle)
    if history.size % xi != 0:
        raise DimensionError(
            f"history length {history.size} is not a multiple of xi={xi}"
        )
    if bundle.slow_kind == "selective-ssm":
        sliced, cache = _ssm_stream_forward(tokens, bundle.slow, chunk, xi)
    else:
        out, cache = _lstm_block_forward(tokens, bundle.slow)
        sliced = out[-xi:]
    scalars = sliced @ bundle.w_head  # (xi, 1)
    cache.update(
        layer_index=layer_index, history=history, tokens=tokens,
        sliced=sliced, out_shape=tuple(out_shape),
    )
    return scalars[:, 0].reshape(out_shape), cache


def slow_forward(layer_index: int, history, bundle: HyperNetBundle, out_shape,
                 chunk: int = 128):
    return slow_forward_cached(layer_index, history, bundle, out_shape, chunk)[0]


def slow_backward(layer_index: int, history, bundle: HyperNetBundle, out_shape,
                  cotangent, cache=None, chunk: int = 128):
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
    if bundle.slow_kind == "selective-ssm":
        g_tokens = _ssm_stream_backward(g_tail, bundle.slow, cache, grads)
    else:
        g_block = np.zeros_like(cache["tokens"])
        g_block[-xi:] = g_tail
        g_tokens = _lstm_block_backward(g_block, bundle.slow, cache, grads)
    g_lre = np.zeros_like(bundle.lre)
    g_lre[cache["layer_index"]] = g_tokens[0]
    grads["lre"] = g_lre
    grads["w_a"] = np.einsum("t,td->d", cache["history"], g_tokens[1:])[None, :]
    return grads


# The production selective block streams the history in chunks (Gu & Dao
# 2023, section 3.3.2; Chen et al. 2016 checkpointing applied to the scan):
# the (T, d_inner, N) terms live only in chunk-sized scratch buffers, the
# forward keeps token-level arrays plus the state entering every chunk, and
# the backward walks the chunks in reverse, recomputing each one from its
# boundary state.  Only the last xi tokens feed the head, so the readout
# (y, gate, out-projection, residual) runs on that tail alone.  The oracle it
# is tested against, `tests/slow_reference.py`, steps the scan token by token.


class _ChunkTerms:
    """Per-chunk terms of the selective scan, in scratch buffers reused across chunks.

    For tokens s..e-1 it fills ld = delta_t * A, clamped to <= -_LD_CLAMP,
    decay = exp(S) with S the chunk-local inclusive cumsum of ld,
    em = expm1(ld), phi = em / ld, r = (delta_t u_t) outer B_t and
    inp = phi * r.  While the clamp cannot fire, S is taken in the factored
    form A * cumsum(delta).
    """

    def __init__(self, delta, du, braw, a, chunk: int):
        self.delta, self.du, self.braw, self.a = delta, du, braw, a
        self.a_top = float(a.max())  # the entry of A closest to zero
        self.bufs = np.empty((6, chunk) + a.shape, dtype=DTYPE)

    def fill(self, s: int, e: int):
        ld, decay, em, phi, r, inp = self.bufs[:, : e - s]
        dl = self.delta[s:e]
        np.multiply(dl[:, None, None], self.a, out=ld)
        # fl(delta * A) is monotone in delta and A, so this scalar is max(ld)
        if float(dl.min()) * self.a_top > -_LD_CLAMP:
            np.minimum(ld, -_LD_CLAMP, out=ld)
            np.cumsum(ld, axis=0, out=decay)
        else:
            np.multiply(np.cumsum(dl)[:, None, None], self.a, out=decay)
        np.exp(decay, out=decay)
        np.expm1(ld, out=em)
        np.divide(em, ld, out=phi)  # (e^x - 1) / x
        np.multiply(self.du[s:e, :, None], self.braw[s:e, None, :], out=r)
        np.multiply(phi, r, out=inp)
        return ld, decay, em, phi, r, inp


def _chunk_states(hs, decay, inp, step: bool) -> None:
    """hs[0] holds the state entering the chunk; fill hs[1:] with h_s .. h_{e-1}."""
    if step:  # one token, whose decay is exp(ld): h = exp(ld) h_prev + inp
        np.multiply(decay[0], hs[0], out=hs[1])
        hs[1] += inp[0]
    else:  # h_t = exp(S_t) * (h_prev + sum_{r<=t} exp(-S_r) inp_r)
        np.divide(inp, decay, out=hs[1:])
        np.cumsum(hs, axis=0, out=hs)
        hs[1:] *= decay


def _ssm_stream_forward(tokens: np.ndarray, p: SelectiveSsmParams, chunk: int, xi: int):
    """Block output on the last xi tokens, and the cache for the backward."""
    total = tokens.shape[0]
    tail0 = total - xi
    u = tokens @ p.w_in  # (T, din)
    braw = u @ p.w_b
    braw += p.b_b  # (T, N)
    craw = u @ p.w_c
    craw += p.b_c
    draw = u @ p.w_delta
    draw += p.b_delta  # (T, 1)
    delta = _softplus(draw)[:, 0]
    a = -np.exp(p.a_log)  # (din, N), strictly negative
    # chunk_plan's overflow guards, on max |ld| of the clamped ld = min(delta * A, -eps)
    chunk, step = chunk_plan(max(float(delta.max()) * float(-a.min()), _LD_CLAMP), chunk)
    terms = _ChunkTerms(delta, delta[:, None] * u, braw, a, chunk)
    starts = range(0, total, chunk)
    bounds = np.empty((len(starts),) + a.shape, dtype=DTYPE)  # state entering each chunk
    states = np.empty((chunk + 1,) + a.shape, dtype=DTYPE)
    y = np.empty((xi, p.d_inner), dtype=DTYPE)
    h = np.zeros(a.shape, dtype=DTYPE)
    for k, s in enumerate(starts):
        e = min(s + chunk, total)
        bounds[k] = h
        _, decay, _, _, _, inp = terms.fill(s, e)
        if e <= tail0 and not step:  # before the tail only the end state is needed
            inp /= decay
            h = decay[-1] * (h + inp.sum(axis=0))
            continue
        hs = states[: e - s + 1]
        hs[0] = h
        _chunk_states(hs, decay, inp, step)
        h = hs[-1].copy()
        lo = max(s, tail0)
        if lo < e:
            y[lo - tail0 : e - tail0] = np.matmul(hs[1 + lo - s :], craw[lo:e, :, None])[..., 0]
    tail = tokens[tail0:]
    gate = _sigmoid(tail @ p.w_gate)
    gated = y * gate
    out = gated @ p.w_out
    out += tail  # residual
    cache = dict(u=u, braw=braw, craw=craw, draw=draw, delta=delta, a=a, plan=(chunk, step),
                 bounds=bounds, y=y, gate=gate, gated=gated)
    return out, cache


def _ssm_stream_backward(g_tail: np.ndarray, p: SelectiveSsmParams, cache, grads):
    """Token gradients (T, d) from the cotangent of the last xi block outputs.

    Per chunk, in reverse: the adjoint lambda_t = g_h_t + exp(ld_{t+1}) lambda_{t+1}
    enters as carry = exp(ld_e) lambda_e from the chunk after.  g_h is zero
    before the tail, so there lambda_t = exp(S_end) carry / exp(S_t), and the
    scan-decay part of the ld gradient, lambda_t exp(ld_t) h_{t-1}, is
    exp(S_end) carry * (h_prev + sum_{r<t} exp(-S_r) inp_r): its two
    contractions (with A over the state, with delta over tokens) need no
    states and no cumsum over the chunk.
    """
    u, braw, craw, delta, a = (cache[k] for k in ("u", "braw", "craw", "delta", "a"))
    tokens, bounds, y, gate = cache["tokens"], cache["bounds"], cache["y"], cache["gate"]
    chunk, step = cache["plan"]
    total, xi = tokens.shape[0], g_tail.shape[0]
    tail0 = total - xi

    g_gated = g_tail @ p.w_out.T
    grads["slow.w_out"] = cache["gated"].T @ g_tail
    g_y = g_gated * gate
    g_z = g_gated * y
    g_z *= gate
    g_z *= 1.0 - gate

    du = delta[:, None] * u
    terms = _ChunkTerms(delta, du, braw, a, chunk)
    states = np.empty((chunk + 1,) + a.shape, dtype=DTYPE)  # h_{s-1} .. h_{e-1}
    lam_buf = np.empty((chunk,) + a.shape, dtype=DTYPE)
    a_flat = a.ravel()
    g_delta = np.empty(total, dtype=DTYPE)
    g_du = np.empty_like(u)
    g_braw = np.empty_like(braw)
    g_craw = np.empty((xi, craw.shape[1]), dtype=DTYPE)
    g_a = np.zeros(a.size, dtype=DTYPE)
    carry = np.zeros(a.shape, dtype=DTYPE)
    for k in range(len(bounds) - 1, -1, -1):
        s = k * chunk
        e = min(s + chunk, total)
        c = e - s
        dl = delta[s:e]
        ld, decay, em, phi, r, inp = terms.fill(s, e)
        np.add(em, 1.0, out=em)  # exp(ld)
        lam = lam_buf[:c]
        lo = max(s, tail0)
        if lo < e or step:  # states in full, lambda by a reverse scan of the chunk
            hs = states[: c + 1]
            hs[0] = bounds[k]
            _chunk_states(hs, decay, inp, step)
            lam[: lo - s] = 0.0
            if lo < e:
                gy = g_y[lo - tail0 : e - tail0]
                g_craw[lo - tail0 : e - tail0] = np.matmul(gy[:, None, :], hs[1 + lo - s :])[:, 0]
                np.multiply(gy[:, :, None], craw[lo:e, None, :], out=lam[lo - s :])  # g_h
            if step:
                lam += carry
            else:  # lambda_t = (sum_{j>=t} exp(S_j) g_h_j + exp(S_end) carry) / exp(S_t)
                lam *= decay
                rev = lam[::-1]
                np.cumsum(rev, axis=0, out=rev)
                lam += decay[-1] * carry
                lam /= decay
            g_decay = np.multiply(em, hs[:c], out=inp)  # exp(ld_t) h_{t-1}
            g_decay *= lam
        else:  # before the tail, in closed form from the forward decay products
            scale = decay[-1] * carry
            np.divide(scale, decay, out=lam)
            inp /= decay
            q = inp.reshape(c, -1)  # exp(-S_r) inp_r
            hb = bounds[k].ravel()
            a_scale = (a * scale).ravel()
            # sum over the state of A * scale * (h_prev + exclusive cumsum of q)
            g_delta[s] = a_scale @ hb
            np.cumsum(q[:-1] @ a_scale, out=g_delta[s + 1 : e])
            g_delta[s + 1 : e] += g_delta[s]
            # sum over tokens of delta_t * scale * (h_prev + exclusive cumsum of q)
            dsum = np.cumsum(dl)
            g_a += scale.ravel() * (hb * dsum[-1] + (dsum[-1] - dsum) @ q)
            g_decay = None
        carry = em[0] * lam[0]
        # the phi factor of the input: d/dx[(e^x - 1)/x] = (e^x - phi) / x
        g_ld = em
        g_ld -= phi
        g_ld /= ld
        g_ld *= r
        g_ld *= lam
        if g_decay is not None:
            g_ld += g_decay
            g_delta[s:e] = g_ld.reshape(c, -1) @ a_flat
        else:
            g_delta[s:e] += g_ld.reshape(c, -1) @ a_flat
        g_a += dl @ g_ld.reshape(c, -1)
        phi *= lam  # gradient into inp, times phi
        g_du[s:e] = np.matmul(phi, braw[s:e, :, None])[..., 0]
        g_braw[s:e] = np.matmul(du[s:e, None, :], phi)[:, 0]

    grads["slow.a_log"] = g_a.reshape(a.shape) * a  # A = -exp(a_log)
    g_delta += np.einsum("tc,tc->t", g_du, u)
    g_u = g_du * delta[:, None]
    grads["slow.w_c"] = u[tail0:].T @ g_craw
    grads["slow.b_c"] = g_craw.sum(axis=0)
    g_u[tail0:] += g_craw @ p.w_c.T
    grads["slow.w_b"] = u.T @ g_braw
    grads["slow.b_b"] = g_braw.sum(axis=0)
    g_u += g_braw @ p.w_b.T

    g_draw = g_delta[:, None] * _sigmoid(cache["draw"])  # softplus'
    grads["slow.w_delta"] = u.T @ g_draw
    grads["slow.b_delta"] = g_draw.sum(axis=0)
    g_u += g_draw @ p.w_delta.T

    grads["slow.w_in"] = tokens.T @ g_u
    g_tokens = g_u @ p.w_in.T
    tail = tokens[tail0:]
    grads["slow.w_gate"] = tail.T @ g_z
    g_tokens[tail0:] += g_tail  # residual branch
    g_tokens[tail0:] += g_z @ p.w_gate.T
    return g_tokens


def _lstm_block_forward(tokens: np.ndarray, p: LstmParams):
    total, d = tokens.shape
    gates_i = np.empty((total, d), dtype=DTYPE)
    gates_f = np.empty((total, d), dtype=DTYPE)
    gates_g = np.empty((total, d), dtype=DTYPE)
    gates_o = np.empty((total, d), dtype=DTYPE)
    cells = np.empty((total, d), dtype=DTYPE)
    tanh_c = np.empty((total, d), dtype=DTYPE)
    hidden = np.empty((total, d), dtype=DTYPE)
    h = np.zeros(d, dtype=DTYPE)
    c = np.zeros(d, dtype=DTYPE)
    for t in range(total):
        gsum = tokens[t] @ p.w_x + h @ p.w_h + p.b
        i = _sigmoid(gsum[:d])
        f = _sigmoid(gsum[d : 2 * d])
        g = np.tanh(gsum[2 * d : 3 * d])
        o = _sigmoid(gsum[3 * d :])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        gates_i[t], gates_f[t], gates_g[t], gates_o[t] = i, f, g, o
        cells[t], tanh_c[t], hidden[t] = c, tc, h
    cache = dict(i=gates_i, f=gates_f, g=gates_g, o=gates_o, c=cells,
                 tanh_c=tanh_c, hidden=hidden)
    return hidden, cache


def _lstm_block_backward(g_out: np.ndarray, p: LstmParams, cache, grads):
    tokens = cache["tokens"]
    total, d = tokens.shape
    i, f, g, o = cache["i"], cache["f"], cache["g"], cache["o"]
    c, tanh_c, hidden = cache["c"], cache["tanh_c"], cache["hidden"]
    g_w_x = np.zeros_like(p.w_x)
    g_w_h = np.zeros_like(p.w_h)
    g_b = np.zeros_like(p.b)
    g_tokens = np.zeros_like(tokens)
    g_h = np.zeros(d, dtype=DTYPE)
    g_c = np.zeros(d, dtype=DTYPE)
    for t in range(total - 1, -1, -1):
        g_h = g_h + g_out[t]
        g_o = g_h * tanh_c[t]
        g_c = g_c + g_h * o[t] * (1.0 - tanh_c[t] ** 2)
        c_prev = c[t - 1] if t > 0 else np.zeros(d, dtype=DTYPE)
        g_f = g_c * c_prev
        g_i = g_c * g[t]
        g_g = g_c * i[t]
        g_c = g_c * f[t]
        pre = np.concatenate([
            g_i * i[t] * (1.0 - i[t]),
            g_f * f[t] * (1.0 - f[t]),
            g_g * (1.0 - g[t] ** 2),
            g_o * o[t] * (1.0 - o[t]),
        ])
        g_w_x += np.outer(tokens[t], pre)
        h_prev = hidden[t - 1] if t > 0 else np.zeros(d, dtype=DTYPE)
        g_w_h += np.outer(h_prev, pre)
        g_b += pre
        g_tokens[t] += pre @ p.w_x.T
        g_h = pre @ p.w_h.T
    grads["slow.w_x"] = g_w_x
    grads["slow.w_h"] = g_w_h
    grads["slow.b"] = g_b
    return g_tokens


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------


def save_arrays(path, arrays: dict) -> None:
    """Write a flat name -> float64 array mapping; bit-exact on reload."""
    np.savez(path, **{k: np.asarray(v) for k, v in arrays.items()})


def load_arrays(path) -> dict:
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k].copy() for k in data.files}
