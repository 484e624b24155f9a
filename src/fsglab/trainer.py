"""Training loops: the fast/slow generated-gradient trainer and the
straight-through baseline.

Update convention
-----------------
The composed gradient for a binarized layer is

    G = alpha * g_fast (*) dA/dW  -  beta * g_slow

registered in place of dloss/dW, so the base optimizer's `W <- W - lr * G`
realizes the `-alpha * fast + beta * slow` update direction with the learning
rate folded in.  The forward of every generated-gradient iteration is
evaluated at the probe point

    W' = W - lr * G

(the exact point a plain-SGD update will land on), quantized as Q(A(W')).
Backward crosses Q with the straight-through rule and A with its elementwise
derivative, reaching the two hypernetworks through the W' expression; their
gradients here are exact in reverse mode once Q is the identity and A's layer
max is held at W, which is what the finite-difference suite checks.

Iteration protocol
------------------
Iteration 1 runs a plain quantized forward/backward: no gradient has been
generated yet, so binarized weights are NOT updated; their gradients seed
the history buffers and the next iteration's fast-net input.  Non-binarized
parameters (first/last layers, biases) train by plain backprop from the
first iteration on.  Consequently the generated-gradient trainer runs one
iteration "behind": with fast=identity, slow=off and plain SGD its
per-iteration forward states and losses are bit-identical to the baseline's,
and binarized weights reach the baseline's states one iteration later.

The fast net consumes the previous iteration's gradient with respect to the
binarized weights (the quantizer-output gradient); the history buffer stores
the previous chain-rule weight gradients (quantizer-output gradient times
dA/dW), or the composed G when cfg.history_source == "composed".

A trainer runs on a `TrainConfig`, which `config` defines with every rule of
its settings; it and its nested dataclasses are re-exported here.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from .config import LrDecay, OptimizerConfig, TrainConfig  # noqa: F401 (re-exported)
from .errors import ContractError, DimensionError, DivergenceError, EvaluationError, FormatError
from .history import GradientHistoryBuffer
from .hypernet import (
    HyperNetBundle,
    fast_backward,
    fast_forward,
    slow_backward,
    slow_forward_cached,
)
from .model import Model
from .optim import OptimizerState, adam_step, sgd_momentum_step, sgd_step
from .quantize import preprocess, quantize, ste_backward
from .rng import Rng
from .tensor import DTYPE, softmax_cross_entropy


@dataclass
class MetricsRecord:
    epoch: int
    iteration: int
    split: str
    loss: float
    accuracy: float
    lr: float
    wall_ms: int

    def validate(self) -> None:
        if not self.loss >= 0:
            raise ValueError(f"loss must be >= 0, got {self.loss}")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")


@dataclass
class LayerStep:
    """One binarized layer's record of one step, the same for both trainers.

    The straight-through baseline forwards at W' = W and generates nothing,
    so its g_fast, g_slow, slow_cache and g_fsg stay None.
    """

    w_hat: np.ndarray  # A(W)
    da_dw: np.ndarray  # dA/dW at W
    g_fast: np.ndarray | None = None
    g_slow: np.ndarray | None = None
    slow_cache: object = None
    g_fsg: np.ndarray | None = None  # G; None until a gradient has been generated
    w_fwd: np.ndarray | None = None  # the forward weight Q(A(W'))
    da_fwd: np.ndarray | None = None  # dA/dW at W'
    g_fwd: np.ndarray | None = None  # loss gradient with respect to w_fwd
    g_ste: np.ndarray | None = None  # straight-through weight gradient, g_fwd * da_fwd


def compose_gradient(g_fast, g_slow, da_dw, alpha: float, beta: float) -> np.ndarray:
    """G = alpha * g_fast (*) da_dw - beta * g_slow; absent terms are zero."""
    da_dw = np.asarray(da_dw, dtype=DTYPE)
    for which, g in (("fast", g_fast), ("slow", g_slow)):
        if g is not None and np.shape(g) != da_dw.shape:
            raise DimensionError(
                f"{which} gradient shape {np.shape(g)} != da_dw shape {da_dw.shape}")
    if g_fast is None:
        out = np.zeros_like(da_dw)
    else:
        out = alpha * np.asarray(g_fast, dtype=DTYPE) * da_dw
    if g_slow is not None:
        out = out - beta * np.asarray(g_slow, dtype=DTYPE)
    return out


def _checked(arrays: dict, name: str, shape: tuple) -> np.ndarray:
    """The checkpoint array `name`; FormatError unless it exists with `shape`."""
    if name not in arrays:
        raise FormatError(f"checkpoint lacks array {name!r} of shape {shape}")
    if arrays[name].shape != shape:
        raise FormatError(f"checkpoint array {name!r} has shape "
                          f"{arrays[name].shape}, expected {shape}")
    return arrays[name]


def _restore_params(named_params, arrays: dict) -> None:
    """Copy checkpoint arrays into live parameters of exactly the same shape."""
    for name, arr in named_params:
        arr[...] = _checked(arrays, name, arr.shape)


def _restore_slots(state: OptimizerState, prefix: str, named_params, arrays: dict) -> None:
    """Load the `prefix.*` optimizer slots; each must match its parameter's shape."""
    state.load_slot_arrays(arrays, prefix)
    shapes = {name: arr.shape for name, arr in named_params}
    for name, slot in state.slots.items():
        if name not in shapes:
            raise FormatError(f"checkpoint slots '{prefix}.{name}.*' belong to no parameter")
        for key in slot:
            _checked(arrays, f"{prefix}.{name}.{key}", shapes[name])


class _TrainerBase:
    """Shared batching, optimizer plumbing and evaluation."""

    def __init__(self, model: Model, cfg: TrainConfig):
        cfg.validate()
        self.model = model
        self.cfg = cfg
        self.rng = Rng(cfg.seed)
        self.data_rng = self.rng.derive("data-shuffle")
        self.base_state = OptimizerState()
        self.iteration = 0  # completed iterations
        self.epoch = 0
        self.bin_indices = model.binarized_indices()
        # perfbench/workloads.py reads quant_states[i].w, so the name stays
        self.quant_states = {i: model.layers[i] for i in self.bin_indices}

    # -- learning-rate schedule --------------------------------------------

    def current_lr(self) -> float:
        decay = self.cfg.lr_decay
        if decay.every <= 0 or decay.factor == 1.0:
            return self.cfg.base_optimizer.lr
        return self.cfg.base_optimizer.lr * decay.factor ** (self.epoch // decay.every)

    def _base_update(self, name: str, params: np.ndarray, grad: np.ndarray,
                     lr: float) -> None:
        opt = self.cfg.base_optimizer
        if opt.kind == "sgd":
            if opt.momentum:
                sgd_momentum_step(params, grad, self.base_state, name, lr, opt.momentum)
            else:
                sgd_step(params, grad, lr)
        else:
            adam_step(params, grad, self.base_state, name, lr,
                      opt.beta1, opt.beta2, opt.eps)

    # -- data plumbing -------------------------------------------------------

    def _batches(self, x, y):
        n = x.shape[0]
        if n == 0:
            raise ContractError("empty dataset")
        perm = self.data_rng.permutation(n)
        bs = self.cfg.batch_size
        for start in range(0, n, bs):
            idx = perm[start : start + bs]
            yield x[idx], y[idx]

    # -- binarized layers ------------------------------------------------------

    def _preprocess(self, w, i: int, it: int, which: str = "W", m=None):
        """preprocess(w, m) of binarized layer i; non-finite weights end the run."""
        try:
            return preprocess(w, m)
        except EvaluationError as exc:
            raise DivergenceError(it, f"non-finite weights {which} of layer {i} "
                                      f"at iteration {it}") from exc

    def _update_model(self, grads: dict, bin_grads: dict, lr: float) -> None:
        """One base-optimizer step of every model parameter by its backprop gradient,
        except binarized layer i's weights: they move by bin_grads[i], or hold still
        while that is None."""
        grads = {**grads, **{f"layer{i}.w": g for i, g in bin_grads.items()}}
        for name, arr in self.model.named_params():
            if grads[name] is not None:
                self._base_update(name, arr, grads[name], lr)

    def _ste_layer(self, i: int, it: int) -> LayerStep:
        """Layer i's record with the forward at Q(A(W)), i.e. W' = W."""
        w_hat, da_dw = self._preprocess(self.model.layers[i].w, i, it)
        return LayerStep(w_hat, da_dw, w_fwd=quantize(w_hat, self.cfg.bit_width),
                         da_fwd=da_dw)

    def _forward_backward(self, x, y, layers: dict, it: int):
        """Forward at each layer's w_fwd and backward; fills g_fwd and g_ste.

        Returns (loss, correct predictions, gradients of all parameters)."""
        logits, caches = self.model.forward(x, {i: s.w_fwd for i, s in layers.items()})
        loss, g_logits, _ = softmax_cross_entropy(logits, y)
        if not np.isfinite(loss):
            raise DivergenceError(it)
        grads = self.model.backward(g_logits, caches)
        for i, s in layers.items():
            s.g_fwd = grads[f"layer{i}.w"]
            s.g_ste = ste_backward(s.g_fwd) * s.da_fwd
        return loss, float((logits.argmax(axis=1) == y).sum()), grads

    def evaluate(self, x, y, split: str = "test") -> MetricsRecord:
        """Binarized-weight inference; never mutates weights or state."""
        if x.shape[0] == 0:
            raise ContractError("empty dataset")
        t0 = time.perf_counter()
        overrides = {i: self._ste_layer(i, self.iteration).w_fwd for i in self.bin_indices}
        logits, _ = self.model.forward(x, overrides)
        loss, _, _ = softmax_cross_entropy(logits, y)
        if not np.isfinite(loss):
            raise DivergenceError(self.iteration, f"non-finite {split} loss at iteration "
                                                  f"{self.iteration}")
        acc = float((logits.argmax(axis=1) == y).mean())
        ms = int((time.perf_counter() - t0) * 1000) if self.cfg.record_timing else 0
        rec = MetricsRecord(self.epoch, self.iteration, split, loss, acc,
                            self.current_lr(), ms)
        rec.validate()
        return rec

    def train_epoch(self, x, y) -> MetricsRecord:
        t0 = time.perf_counter()
        total_loss = 0.0
        total_correct = 0.0
        count = 0
        lr = self.current_lr()
        for bx, by in self._batches(x, y):
            loss, info = self.step(bx, by)
            total_loss += loss * bx.shape[0]
            total_correct += info["correct"]
            count += bx.shape[0]
        self.epoch += 1
        ms = int((time.perf_counter() - t0) * 1000) if self.cfg.record_timing else 0
        rec = MetricsRecord(self.epoch, self.iteration, "train",
                            total_loss / count, total_correct / count, lr, ms)
        rec.validate()
        return rec

    def named_params(self):
        """(name, array) of every trainable array: the model's, and FsgTrainer's hypernetworks'."""
        return self.model.named_params()

    def params_checksum(self) -> str:
        """sha256 over the name and bytes of every array of `named_params`, in order; the
        purity tests compare it before and after a call that must not mutate anything."""
        h = hashlib.sha256()
        for name, arr in self.named_params():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def _checkpoint_arrays(self) -> dict:
        arrays = dict(self.named_params())
        arrays.update(self.base_state.slot_arrays("base"))
        arrays["meta.iteration"] = np.asarray([self.iteration], dtype=DTYPE)
        arrays["meta.epoch"] = np.asarray([self.epoch], dtype=DTYPE)
        arrays["meta.data_rng_state"] = np.asarray([self.data_rng.state],
                                                   dtype=np.uint64)
        return arrays

    def save_checkpoint(self, path) -> None:
        """Model + optimizer state (+ hypernets/buffers in subclasses) as npz, bit-exact."""
        np.savez(path, **self._checkpoint_arrays())

    def load_checkpoint(self, path) -> None:
        with np.load(path, allow_pickle=False) as data:
            self._restore_arrays({name: data[name] for name in data.files})

    def _restore_arrays(self, arrays: dict) -> None:
        _restore_params(self.named_params(), arrays)
        _restore_slots(self.base_state, "base", self.model.named_params(), arrays)
        self.iteration = int(arrays["meta.iteration"][0])
        self.epoch = int(arrays["meta.epoch"][0])
        self.data_rng.set_state(int(arrays["meta.data_rng_state"][0]))


class SteTrainer(_TrainerBase):
    """DoReFa baseline: quantized forward, straight-through backward."""

    def step(self, x, y):
        lr = self.current_lr()
        it = self.iteration + 1
        layers = {i: self._ste_layer(i, it) for i in self.bin_indices}
        loss, correct, grads = self._forward_backward(x, y, layers, it)
        self._update_model(grads, {i: s.g_ste for i, s in layers.items()}, lr)
        self.iteration = it
        return loss, {"correct": correct, "layers": layers}


class FsgTrainer(_TrainerBase):
    """Trainer with fast/slow generated gradients for binarized layers."""

    def __init__(self, model: Model, cfg: TrainConfig):
        super().__init__(model, cfg)
        self.bundle = HyperNetBundle.init(
            self.rng.derive("hypernets"), n_layers=max(len(self.bin_indices), 1),
            fast_kind=cfg.fast_kind, slow_kind=cfg.slow_kind,
            fast_hidden=cfg.fast_hidden, d=cfg.token_dim,
            n_state=cfg.state_dim, expand=cfg.expand,
        )
        self.hyper_state = OptimizerState()
        self.buffers = {
            i: GradientHistoryBuffer(i, int(np.prod(model.layers[i].w.shape)), cfg.l)
            for i in self.bin_indices
        }
        self.prev_quant_grad: dict[int, np.ndarray | None] = {
            i: None for i in self.bin_indices
        }
        self._row = {i: pos for pos, i in enumerate(self.bin_indices)}

    # -- one iteration, split into pure compute + state mutation -------------

    def _effective_weight(self, w_prime, surrogate: bool, w_base, i: int, it: int):
        """(forward weight, dA/dW) at W': Q(A(W')), or on the surrogate path A(W') with Q
        replaced by identity and A's layer max frozen at the base weights', which do not
        depend on the hypernetworks.  The constant-max dA/dW is then that path's exact
        Jacobian, so finite differences of the surrogate loss match the backward."""
        m = np.max(np.abs(np.tanh(w_base))) if surrogate else None
        w_hat_p, da_p = self._preprocess(w_prime, i, it, "W' = W - lr*G", m)
        return (w_hat_p if surrogate else quantize(w_hat_p, self.cfg.bit_width)), da_p

    def _compute_step(self, x, y, surrogate: bool = False):
        cfg = self.cfg
        lr = self.current_lr()
        it = self.iteration + 1
        layers = {}
        for i in self.bin_indices:
            w = self.model.layers[i].w
            prev = self.prev_quant_grad[i]
            s = layers[i] = LayerStep(*self._preprocess(w, i, it))
            w_prime = w
            if prev is not None:  # no gradient to generate from before the first step: W' = W
                if cfg.fast_kind == "mlp":
                    s.g_fast = fast_forward(prev, s.w_hat, self.bundle.fast)
                elif cfg.fast_kind == "identity":
                    s.g_fast = prev
                if cfg.slow_kind != "off" and len(self.buffers[i]) > 0:
                    s.g_slow, s.slow_cache = slow_forward_cached(
                        self._row[i], self.buffers[i].window(), self.bundle,
                        w.shape, chunk=cfg.scan_chunk,
                    )
                s.g_fsg = compose_gradient(s.g_fast, s.g_slow, s.da_dw, cfg.alpha, cfg.beta)
                w_prime = w - lr * s.g_fsg
            s.w_fwd, s.da_fwd = self._effective_weight(w_prime, surrogate, w, i, it)

        loss, correct, grads = self._forward_backward(x, y, layers, it)

        hyper_grads: dict[str, np.ndarray] = {}

        def accumulate(new):
            for k, v in new.items():
                hyper_grads[k] = hyper_grads[k] + v if k in hyper_grads else v

        for i, s in layers.items():
            if s.g_fsg is None:
                continue
            # cotangents through W' = W - lr*(alpha*F(*)dA - beta*S)
            if cfg.fast_kind == "mlp":
                cot_fast = -lr * cfg.alpha * s.g_ste * s.da_dw
                accumulate(fast_backward(self.prev_quant_grad[i], s.w_hat,
                                         self.bundle.fast, cot_fast))
            if s.slow_cache is not None:
                cot_slow = lr * cfg.beta * s.g_ste
                sgrads = slow_backward(self._row[i], None, self.bundle, s.w_hat.shape,
                                       cot_slow, cache=s.slow_cache)
                accumulate(sgrads)

        return {
            "iteration": it,
            "loss": loss,
            "lr": lr,
            "layers": layers,
            "grads": grads,
            "hyper_grads": hyper_grads,
            "correct": correct,
        }

    def surrogate_loss(self, x, y) -> float:
        """Loss of the differentiable surrogate path (Q = identity); pure."""
        return self._compute_step(x, y, surrogate=True)["loss"]

    def _apply_step(self, result) -> None:
        cfg = self.cfg
        lr = result["lr"]
        layers = result["layers"]
        hyper_grads = result["hyper_grads"]
        for name, g in hyper_grads.items():  # checked before any parameter moves
            if not np.all(np.isfinite(g)):
                raise DivergenceError(result["iteration"], f"non-finite hyper-gradient of "
                                      f"{name} at iteration {result['iteration']}")
        for name, arr in self.bundle.named_params():
            if name in hyper_grads:
                adam_step(arr, hyper_grads[name], self.hyper_state, name, cfg.hyper_lr)
        self._update_model(result["grads"], {i: s.g_fsg for i, s in layers.items()}, lr)
        for i, s in layers.items():
            if cfg.history_source == "composed" and s.g_fsg is not None:
                self.buffers[i].push(s.g_fsg)
            else:
                self.buffers[i].push(s.g_ste)
            self.prev_quant_grad[i] = s.g_fwd
        self.iteration = result["iteration"]

    def step(self, x, y):
        result = self._compute_step(x, y)
        self._apply_step(result)
        return result["loss"], result

    def named_params(self):
        return self.model.named_params() + self.bundle.named_params()

    def _checkpoint_arrays(self) -> dict:
        arrays = super()._checkpoint_arrays()
        arrays.update(self.hyper_state.slot_arrays("hyper"))
        for i, buf in self.buffers.items():
            if len(buf):
                arrays[f"history.layer{i}"] = np.stack(buf.entries())
            if self.prev_quant_grad[i] is not None:
                arrays[f"prev_grad.layer{i}"] = self.prev_quant_grad[i]
        return arrays

    def _restore_arrays(self, arrays: dict) -> None:
        super()._restore_arrays(arrays)
        _restore_slots(self.hyper_state, "hyper", self.bundle.named_params(), arrays)
        for i in self.bin_indices:
            name, buf = f"history.layer{i}", self.buffers[i]
            if name in arrays:
                rows = arrays[name].shape[0] if arrays[name].ndim else 0
                buf.load(_checked(arrays, name, (min(rows, buf.capacity), buf.xi)))
            name = f"prev_grad.layer{i}"
            if name in arrays:
                self.prev_quant_grad[i] = _checked(
                    arrays, name, self.model.layers[i].w.shape).copy()
