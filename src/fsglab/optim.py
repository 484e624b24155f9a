"""Base optimizers and the momentum expansion identity.

SGD with momentum follows the classical coupled form

    v <- beta * v - alpha * g
    x <- x + v

whose unrolled solution is v_T = -alpha * sum_k beta^(T-1-k) g_k; the
`momentum_expand` helper computes that closed form so the two can be checked
against each other.  Adam is the standard bias-corrected variant with a
per-parameter update count, so parameters that start training late (e.g.
binarized layers, which sit out the first iteration) still get correct bias
correction.  All updates mutate the parameter arrays in place.
"""

from __future__ import annotations

import numpy as np

from .tensor import DTYPE


class OptimizerState:
    """Per-parameter accumulators and update counts, keyed by name."""

    def __init__(self):
        self.slots: dict[str, dict[str, np.ndarray]] = {}
        self.counts: dict[str, int] = {}

    def slot(self, name: str, like: np.ndarray, keys) -> dict:
        if name not in self.slots:
            self.slots[name] = {k: np.zeros_like(like, dtype=DTYPE) for k in keys}
        return self.slots[name]

    def bump(self, name: str) -> int:
        self.counts[name] = self.counts.get(name, 0) + 1
        return self.counts[name]

    def slot_arrays(self, prefix: str = "opt"):
        out = []
        for name in sorted(self.slots):
            for key, arr in sorted(self.slots[name].items()):
                out.append((f"{prefix}.{name}.{key}", arr))
        for name in sorted(self.counts):
            out.append((f"{prefix}.{name}.count", np.asarray([self.counts[name]], dtype=DTYPE)))
        return out

    def load_slot_arrays(self, arrays: dict, prefix: str = "opt") -> None:
        """Inverse of `slot_arrays`: replace this state by the `prefix.*` arrays."""
        self.slots, self.counts = {}, {}
        for key, arr in arrays.items():
            if key.startswith(prefix + "."):
                name, slot_key = key[len(prefix) + 1:].rsplit(".", 1)
                if slot_key == "count":
                    self.counts[name] = int(arr[0])
                else:
                    self.slots.setdefault(name, {})[slot_key] = arr.copy()


def sgd_step(params: np.ndarray, grad: np.ndarray, lr: float) -> None:
    params -= lr * grad


def sgd_momentum_step(params, grad, state: OptimizerState, name: str,
                      lr: float, momentum: float) -> None:
    slot = state.slot(name, params, ("velocity",))
    v = slot["velocity"]
    v *= momentum
    v -= lr * grad
    params += v


def adam_step(params, grad, state: OptimizerState, name: str, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    t = state.bump(name)
    slot = state.slot(name, params, ("m", "v"))
    m, v = slot["m"], slot["v"]
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    params -= lr * m_hat / (np.sqrt(v_hat) + eps)


def momentum_expand(beta: float, alpha: float, grads) -> np.ndarray:
    """Closed form of the momentum recursion: -alpha * sum beta^(T-1-k) g_k."""
    grads = [np.asarray(g, dtype=DTYPE) for g in grads]
    if not grads:
        raise ValueError("momentum_expand needs at least one gradient")
    total = np.zeros_like(grads[0])
    count = len(grads)
    for k, g in enumerate(grads):
        total += beta ** (count - 1 - k) * g
    return -alpha * total
