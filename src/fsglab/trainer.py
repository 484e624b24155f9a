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
derivative, reaching the two hypernetworks through the W' expression; the
hypernetwork gradients implemented here are the exact reverse-mode gradients
of that surrogate path, which is what the finite-difference suite checks.

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
"""

from __future__ import annotations

import hashlib
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, DivergenceError, FormatError
from .history import GradientHistoryBuffer
from .hypernet import (
    HyperNetBundle,
    fast_backward,
    fast_forward,
    load_arrays,
    save_arrays,
    slow_backward,
    slow_forward_cached,
)
from .model import Model
from .optim import OptimizerState, adam_step, sgd_momentum_step, sgd_step
from .quantize import QuantLayerState, preprocess, quantize, ste_backward
from .rng import Rng
from .tensor import DTYPE, softmax_cross_entropy


_AT_LEAST_ONE = ("l", "epochs", "batch_size", "bit_width", "fast_hidden",
                 "token_dim", "state_dim", "expand", "scan_chunk")
_ENUMS = {
    "slow_kind": ("selective-ssm", "lstm", "off"),
    "fast_kind": ("mlp", "identity", "off"),
    "history_source": ("raw", "composed"),
    "base_optimizer.kind": ("sgd", "adam"),
}


@dataclass
class OptimizerConfig:
    kind: str = "adam"
    lr: float = 1e-3
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class LrDecay:
    every: int = 30  # epochs
    factor: float = 0.1


@dataclass
class TrainConfig:
    """Every train setting; each leaf field is a config key (nested ones dotted).
    Defaults follow the experiment-setup table this lab is derived from."""

    alpha: float = 1.0
    beta: float = 0.3
    l: int = 6
    base_optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    hyper_lr: float = 1e-3
    epochs: int = 100
    batch_size: int = 64
    lr_decay: LrDecay = field(default_factory=LrDecay)
    seed: int = 0
    slow_kind: str = "selective-ssm"
    fast_kind: str = "mlp"
    bit_width: int = 1
    fast_hidden: int = 100
    token_dim: int = 16
    state_dim: int = 8
    expand: int = 2
    scan_chunk: int = 128
    history_source: str = "raw"
    record_timing: bool = False

    def validate(self) -> None:
        """The one check of the train settings; raises ConfigError naming the field."""
        def fail(key, problem):
            raise ConfigError(f"field {key!r}: {problem}")

        for key in _AT_LEAST_ONE:
            if getattr(self, key) < 1:
                fail(key, f"{key} must be >= 1, got {getattr(self, key)}")
        if self.base_optimizer.lr <= 0:
            fail("base_optimizer.lr", f"lr must be > 0, got {self.base_optimizer.lr}")
        if not 0.0 <= self.beta <= 1.0:
            fail("beta", f"beta must be in [0, 1], got {self.beta}")
        for key, allowed in _ENUMS.items():
            value = operator.attrgetter(key)(self)
            if value not in allowed:
                fail(key, f"{key} must be one of {allowed}, got {value!r}")


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
        if self.loss < 0:
            raise ValueError(f"loss must be >= 0, got {self.loss}")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")


def compose_gradient(g_fast, g_slow, da_dw, alpha: float, beta: float) -> np.ndarray:
    """G = alpha * g_fast (*) da_dw - beta * g_slow; absent terms are zero."""
    da_dw = np.asarray(da_dw, dtype=DTYPE)
    if g_fast is None and g_slow is None:
        return np.zeros_like(da_dw)
    if g_fast is not None:
        g_fast = np.asarray(g_fast, dtype=DTYPE)
        if g_fast.shape != da_dw.shape:
            raise DimensionError(
                f"fast gradient shape {g_fast.shape} != da_dw shape {da_dw.shape}"
            )
        out = alpha * g_fast * da_dw
    else:
        out = np.zeros_like(da_dw)
    if g_slow is not None:
        g_slow = np.asarray(g_slow, dtype=DTYPE)
        if g_slow.shape != da_dw.shape:
            raise DimensionError(
                f"slow gradient shape {g_slow.shape} != da_dw shape {da_dw.shape}"
            )
        out = out - beta * g_slow
    return out


def _layer_index(param_name: str) -> int:
    """Model layer index of a parameter name `layer{i}.{w|b}`."""
    return int(param_name.split(".")[0][5:])


def _restore_params(named_params, arrays: dict) -> None:
    """Copy checkpoint arrays into live parameters of exactly the same shape."""
    for name, arr in named_params:
        if name not in arrays:
            raise FormatError(f"checkpoint lacks array {name!r} of shape {arr.shape}")
        if arrays[name].shape != arr.shape:
            raise FormatError(f"checkpoint array {name!r} has shape "
                              f"{arrays[name].shape}, expected {arr.shape}")
        arr[...] = arrays[name]


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
        self.keep_forward_trace = False
        self.forward_trace: list = []
        self.bin_indices = model.binarized_indices()
        self.quant_states = {
            i: QuantLayerState(layer_index=i, w=model.layers[i].w)
            for i in self.bin_indices
        }

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

    def _record_forward(self, loss, overrides):
        if not self.keep_forward_trace:
            return
        snap = {f"layer{i}.w_eff": w.copy() for i, w in overrides.items()}
        for name, arr in self.model.named_params():
            i = _layer_index(name)
            if i not in overrides:
                snap[name] = arr.copy()
        self.forward_trace.append((self.iteration + 1, loss, snap))

    # -- shared inference -----------------------------------------------------

    def _inference_overrides(self):
        overrides = {}
        for i in self.bin_indices:
            w_hat, _ = preprocess(self.model.layers[i].w)
            overrides[i] = quantize(w_hat, self.cfg.bit_width)
        return overrides

    def evaluate(self, x, y, split: str = "test", dump_path=None) -> MetricsRecord:
        """Binarized-weight inference; never mutates weights or state."""
        if x.shape[0] == 0:
            raise ContractError("empty dataset")
        t0 = time.perf_counter()
        logits, _ = self.model.forward(x, self._inference_overrides())
        loss, _, probs = softmax_cross_entropy(logits, y)
        pred = logits.argmax(axis=1)
        acc = float((pred == y).mean())
        if dump_path is not None:
            with open(dump_path, "w", encoding="utf-8") as fh:
                fh.write("label," + ",".join(f"logit{k}" for k in range(logits.shape[1])) + "\n")
                for yi, row in zip(y, logits):
                    fh.write(str(int(yi)) + "," + ",".join(repr(float(v)) for v in row) + "\n")
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

    def params_checksum(self) -> str:
        """Digest of all trainable state; used by purity tests."""
        h = hashlib.sha256()
        for name, arr in self.model.named_params():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def _checkpoint_arrays(self) -> dict:
        arrays = dict(self.model.named_params())
        arrays.update(self.base_state.named_arrays("base"))
        arrays["meta.iteration"] = np.asarray([self.iteration], dtype=DTYPE)
        arrays["meta.epoch"] = np.asarray([self.epoch], dtype=DTYPE)
        arrays["meta.data_rng_state"] = np.asarray([self.data_rng.state],
                                                   dtype=np.uint64)
        return arrays

    def save_checkpoint(self, path) -> None:
        """Model + optimizer state (+ hypernets/buffers in subclasses) as npz."""
        save_arrays(path, self._checkpoint_arrays())

    def load_checkpoint(self, path) -> None:
        self._restore_arrays(load_arrays(path))

    def _restore_arrays(self, arrays: dict) -> None:
        _restore_params(self.model.named_params(), arrays)
        self.base_state.load_named_arrays(arrays, "base")
        self.iteration = int(arrays["meta.iteration"][0])
        self.epoch = int(arrays["meta.epoch"][0])
        self.data_rng.set_state(int(arrays["meta.data_rng_state"][0]))


class SteTrainer(_TrainerBase):
    """DoReFa baseline: quantized forward, straight-through backward."""

    def step(self, x, y):
        lr = self.current_lr()
        it = self.iteration + 1
        overrides = {}
        da = {}
        for i in self.bin_indices:
            st = self.quant_states[i]
            st.refresh(self.cfg.bit_width)
            overrides[i] = st.w_b
            da[i] = st.da_dw
        logits, caches = self.model.forward(x, overrides)
        loss, g_logits, _ = softmax_cross_entropy(logits, y)
        if not np.isfinite(loss):
            raise DivergenceError(it)
        self._record_forward(loss, overrides)
        _, grads = self.model.backward(g_logits, caches)
        for name, arr in self.model.named_params():
            i = _layer_index(name)
            if i in self.bin_indices:
                g = ste_backward(grads[name]) * da[i]
            else:
                g = grads[name]
            self._base_update(name, arr, g, lr)
        self.iteration = it
        pred = logits.argmax(axis=1)
        return loss, {"correct": float((pred == y).sum())}


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

    def _effective_weight(self, w_prime, quantizer: str, w_base):
        if quantizer == "dorefa":
            w_hat_p, da_p = preprocess(w_prime)
            return quantize(w_hat_p, self.cfg.bit_width), da_p
        if quantizer == "surrogate":
            # Q replaced by identity, and the preprocessing normalization is
            # frozen at the base weights (which do not depend on the
            # hypernetworks).  The constant-max derivative convention is then
            # the exact Jacobian of this path, so finite differences of the
            # surrogate loss match the implemented backward.
            t = np.tanh(w_prime)
            m = np.max(np.abs(np.tanh(w_base)))
            if m < 1e-12:
                return np.full_like(w_prime, 0.5), np.zeros_like(w_prime)
            return t / (2.0 * m) + 0.5, (1.0 - t * t) / (2.0 * m)
        raise ValueError(f"unknown quantizer {quantizer!r}")

    def _compute_step(self, x, y, quantizer: str = "dorefa"):
        cfg = self.cfg
        lr = self.current_lr()
        it = self.iteration + 1
        per_layer = {}
        overrides = {}
        for i in self.bin_indices:
            st = self.quant_states[i]
            entry = {}
            if it == 1:
                w_hat_t, da_t = preprocess(st.w)
                if quantizer == "dorefa":
                    w_eff = quantize(w_hat_t, cfg.bit_width)
                else:
                    w_eff = w_hat_t
                entry.update(w_hat_t=w_hat_t, da_t=da_t, w_eff=w_eff, da_p=da_t,
                             g_fsg=None, slow_cache=None)
            else:
                w_hat_t, da_t = preprocess(st.w)
                if cfg.fast_kind == "mlp":
                    g_fast = fast_forward(self.prev_quant_grad[i], w_hat_t, self.bundle.fast)
                elif cfg.fast_kind == "identity":
                    g_fast = self.prev_quant_grad[i]
                else:
                    g_fast = None
                g_slow = None
                slow_cache = None
                if cfg.slow_kind != "off" and len(self.buffers[i]) > 0:
                    g_slow, slow_cache = slow_forward_cached(
                        self._row[i], self.buffers[i].window(), self.bundle,
                        st.w.shape, chunk=cfg.scan_chunk,
                    )
                g_fsg = compose_gradient(g_fast, g_slow, da_t, cfg.alpha, cfg.beta)
                w_prime = st.w - lr * g_fsg
                w_eff, da_p = self._effective_weight(w_prime, quantizer, st.w)
                entry.update(w_hat_t=w_hat_t, da_t=da_t, g_fast=g_fast,
                             g_slow=g_slow, slow_cache=slow_cache, g_fsg=g_fsg,
                             w_eff=w_eff, da_p=da_p)
            overrides[i] = entry["w_eff"]
            per_layer[i] = entry

        logits, caches = self.model.forward(x, overrides)
        loss, g_logits, _ = softmax_cross_entropy(logits, y)
        if not np.isfinite(loss):
            raise DivergenceError(it)
        _, grads = self.model.backward(g_logits, caches)

        hyper_grads: dict[str, np.ndarray] = {}

        def accumulate(new):
            for k, v in new.items():
                hyper_grads[k] = hyper_grads[k] + v if k in hyper_grads else v

        for i in self.bin_indices:
            entry = per_layer[i]
            cot_wb = grads[f"layer{i}.w"]
            fresh_g_w = ste_backward(cot_wb) * entry["da_p"]
            entry["cot_wb"] = cot_wb
            entry["fresh_g_w"] = fresh_g_w
            if it == 1:
                continue
            # cotangents through W' = W - lr*(alpha*F(*)dA - beta*S)
            if cfg.fast_kind == "mlp":
                cot_fast = -lr * cfg.alpha * fresh_g_w * entry["da_t"]
                fgrads, _, _ = fast_backward(self.prev_quant_grad[i],
                                             entry["w_hat_t"], self.bundle.fast, cot_fast)
                accumulate(fgrads)
            if entry["slow_cache"] is not None:
                cot_slow = lr * cfg.beta * fresh_g_w
                sgrads = slow_backward(self._row[i], None, self.bundle,
                                       self.quant_states[i].w.shape, cot_slow,
                                       cache=entry["slow_cache"])
                accumulate(sgrads)

        pred = logits.argmax(axis=1)
        return {
            "iteration": it,
            "loss": loss,
            "lr": lr,
            "overrides": overrides,
            "per_layer": per_layer,
            "grads": grads,
            "hyper_grads": hyper_grads,
            "correct": float((pred == y).sum()),
        }

    def surrogate_loss(self, x, y) -> float:
        """Loss of the differentiable surrogate path (Q = identity); pure."""
        return self._compute_step(x, y, quantizer="surrogate")["loss"]

    def _apply_step(self, result) -> None:
        cfg = self.cfg
        it = result["iteration"]
        lr = result["lr"]
        if result["hyper_grads"]:
            for name, arr in self.bundle.named_params():
                if name in result["hyper_grads"]:
                    adam_step(arr, result["hyper_grads"][name], self.hyper_state,
                              name, cfg.hyper_lr)
        for name, arr in self.model.named_params():
            i = _layer_index(name)
            if i in self.bin_indices:
                entry = result["per_layer"][i]
                st = self.quant_states[i]
                if it > 1:  # before that no generated gradient exists: weights hold still
                    self._base_update(name, arr, entry["g_fsg"], lr)
                st.w_hat, st.da_dw = entry["w_hat_t"], entry["da_t"]
                st.w_b = entry["w_eff"]
            else:
                self._base_update(name, arr, result["grads"][name], lr)
        for i in self.bin_indices:
            entry = result["per_layer"][i]
            if cfg.history_source == "composed" and entry["g_fsg"] is not None:
                self.buffers[i].push(entry["g_fsg"])
            else:
                self.buffers[i].push(entry["fresh_g_w"])
            self.prev_quant_grad[i] = entry["cot_wb"]
        self.iteration = it

    def step(self, x, y):
        result = self._compute_step(x, y, quantizer="dorefa")
        self._record_forward(result["loss"], result["overrides"])
        self._apply_step(result)
        return result["loss"], result

    def _checkpoint_arrays(self) -> dict:
        arrays = super()._checkpoint_arrays()
        arrays.update(self.bundle.named_params())
        arrays.update(self.hyper_state.named_arrays("hyper"))
        for i, buf in self.buffers.items():
            if len(buf):
                arrays[f"history.layer{i}"] = np.stack(buf.entries())
            if self.prev_quant_grad[i] is not None:
                arrays[f"prev_grad.layer{i}"] = self.prev_quant_grad[i]
        return arrays

    def _restore_arrays(self, arrays: dict) -> None:
        super()._restore_arrays(arrays)
        _restore_params(self.bundle.named_params(), arrays)
        self.hyper_state.load_named_arrays(arrays, "hyper")
        for i in self.bin_indices:
            if f"history.layer{i}" in arrays:
                self.buffers[i].load(arrays[f"history.layer{i}"])
            if f"prev_grad.layer{i}" in arrays:
                self.prev_quant_grad[i] = arrays[f"prev_grad.layer{i}"].copy()
