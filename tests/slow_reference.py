"""Per-token reference for the selective slow net, the oracle of the streaming kernel.

The production block in `fsglab.hypernet` streams the history in chunks and
solves each chunk in log space.  This reference shares none of that: it keeps
every (T, d_inner, N) term and steps the recurrence

    h_t = exp(ld_t) h_{t-1} + inp_t

one token at a time.  Its backward runs the adjoint
lambda_t = g_h_t + exp(ld_{t+1}) lambda_{t+1} as a plain reverse loop.  Like
the production block it clamps ld to <= -_LD_CLAMP in the forward and passes
the clamp straight through in the backward.
"""

import numpy as np

from fsglab.hypernet import _LD_CLAMP


def _sigmoid(x):
    return np.exp(-np.logaddexp(0.0, -x))


def selective_terms(u, p):
    """Input-dependent B_t (T, N), C_t (T, N) and delta_t (T, 1) of in-projected tokens u."""
    return u @ p.w_b + p.b_b, u @ p.w_c + p.b_c, np.logaddexp(0.0, u @ p.w_delta + p.b_delta)


def slow_net(layer, history, bundle, shape, cot):
    """Output of the selective slow net and the gradients of sum(cot * output)."""
    p, xi = bundle.slow, int(np.prod(shape))
    tokens = np.concatenate([bundle.lre[layer][None], history[:, None] * bundle.w_a])
    u, z = tokens @ p.w_in, tokens @ p.w_gate
    braw, craw, delta = selective_terms(u, p)
    a = -np.exp(p.a_log)
    ld = np.minimum(delta[:, :, None] * a, -_LD_CLAMP)  # (T, d_inner, N)
    exp_ld, phi = np.exp(ld), np.expm1(ld) / ld
    du = delta * u
    inp = phi * du[:, :, None] * braw[:, None, :]
    h = np.zeros((len(tokens) + 1,) + a.shape)  # h[t + 1] is the state after token t
    for t in range(len(tokens)):
        h[t + 1] = exp_ld[t] * h[t] + inp[t]
    y = np.einsum("tcn,tn->tc", h[1:], craw)
    gate = _sigmoid(z)
    out = (y * gate) @ p.w_out + tokens  # residual
    sliced = out[-xi:]

    gs = cot.reshape(xi, 1)
    grads = {"w_head": sliced.T @ gs}
    g_out = np.zeros_like(tokens)
    g_out[-xi:] = gs @ bundle.w_head.T
    g_gated = g_out @ p.w_out.T
    grads["slow.w_out"] = (y * gate).T @ g_out
    g_y, g_z = g_gated * gate, g_gated * y * gate * (1.0 - gate)
    g_h = g_y[:, :, None] * craw[:, None, :]
    g_craw = np.einsum("tcn,tc->tn", h[1:], g_y)
    lam = np.zeros_like(g_h)
    carry = np.zeros(a.shape)  # exp(ld_{t+1}) lambda_{t+1}
    for t in range(len(tokens) - 1, -1, -1):
        lam[t] = g_h[t] + carry
        carry = exp_ld[t] * lam[t]
    # ld enters through the decay of h_{t-1} and through phi: d phi / d ld = (e^ld - phi) / ld
    g_ld = lam * (exp_ld * h[:-1] + (exp_ld - phi) / ld * du[:, :, None] * braw[:, None, :])
    g_du = np.einsum("tcn,tn->tc", lam * phi, braw)
    g_braw = np.einsum("tcn,tc->tn", lam * phi, du)
    grads["slow.a_log"] = np.einsum("tcn,t->cn", g_ld, delta[:, 0]) * a  # A = -exp(a_log)
    g_delta = np.einsum("tcn,cn->t", g_ld, a)[:, None] + np.sum(g_du * u, axis=1, keepdims=True)
    g_draw = g_delta * _sigmoid(u @ p.w_delta + p.b_delta)  # softplus'
    g_u = g_du * delta + g_craw @ p.w_c.T + g_braw @ p.w_b.T + g_draw @ p.w_delta.T
    grads.update({
        "slow.w_c": u.T @ g_craw, "slow.b_c": g_craw.sum(axis=0),
        "slow.w_b": u.T @ g_braw, "slow.b_b": g_braw.sum(axis=0),
        "slow.w_delta": u.T @ g_draw, "slow.b_delta": g_draw.sum(axis=0),
        "slow.w_in": tokens.T @ g_u, "slow.w_gate": tokens.T @ g_z,
    })
    g_tokens = g_out + g_u @ p.w_in.T + g_z @ p.w_gate.T
    grads["lre"] = np.zeros_like(bundle.lre)
    grads["lre"][layer] = g_tokens[0]
    grads["w_a"] = (history @ g_tokens[1:])[None, :]
    return (sliced @ bundle.w_head)[:, 0].reshape(shape), grads
