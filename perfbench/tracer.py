"""Per-layer spans for the traced benchmark run.

The tracer replaces public functions and methods of the fsglab modules with
timing wrappers, at the binding the caller looks up (for example
`fsglab.trainer.slow_forward_cached`, not `fsglab.hypernet.slow_forward_cached`),
so each call is counted once.  Spans nest: a layer's self time is its time
minus the time of wrapped calls made inside it.  No layer has a queue or a
worker, so no wait time exists to record.

The package code is never edited; `uninstall` puts every original binding
back.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    counts: dict = field(default_factory=lambda: defaultdict(float))


class Tracer:
    """Installs timing wrappers and accumulates one LayerStat per layer key."""

    def __init__(self):
        self.stats: dict[str, LayerStat] = defaultdict(LayerStat)
        self.active = False
        self._child_time: list[list[float]] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def wrap(self, owner, attr: str, key, counter=None) -> None:
        """Wrap `owner.attr`; key is a layer name or a function of the call args."""
        own = attr in vars(owner)
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            name = key(args, kwargs) if callable(key) else key
            stat = tracer.stats[name]
            children = [0.0]
            tracer._child_time.append(children)
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            except Exception:
                stat.errors += 1
                raise
            finally:
                elapsed = time.perf_counter() - t0
                tracer._child_time.pop()
                if tracer._child_time:
                    tracer._child_time[-1][0] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children[0]
            if counter is not None:
                counter(stat.counts, args, kwargs, out)
            return out

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig, own))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig, own = self._patches.pop()
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self.active = False


# -- counters: computed work per call, from argument and result shapes --------


def _count_matmul(counts, args, kwargs, out):
    a, b = args[0], args[1]
    counts["flops"] += 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _count_conv_fwd(counts, args, kwargs, out):
    w = args[1]
    counts["flops"] += 2 * out.size * w.shape[1] * w.shape[2] * w.shape[3]


def _count_conv_bwd(counts, args, kwargs, out):
    w, g_out = args[1], args[2]
    # one contraction for the weight gradient, one for the input gradient
    counts["flops"] += 4 * g_out.size * w.shape[1] * w.shape[2] * w.shape[3]


def _count_pairs(counts, args, kwargs, out):
    counts["pairs"] += np.asarray(args[0]).size


def _count_slow(counts, args, kwargs, out):
    counts["tokens"] += out[1]["tokens"].shape[0]


def _count_scan(counts, args, kwargs, out):
    counts["elements"] += np.asarray(args[0]).size


def _count_window(counts, args, kwargs, out):
    counts["bytes"] += out.nbytes


def _count_files(counts, args, kwargs, out):
    counts["bytes"] += os.path.getsize(args[0]) + os.path.getsize(args[1])


def _count_convex(counts, args, kwargs, out):
    counts["iterations"] += kwargs["T"] * kwargs["repeats"]


def _adam_key(args, kwargs):
    # base-model parameters are named layer<i>.<w|b>; everything else is a hypernet
    return "optim.adam.base" if args[3].startswith("layer") else "optim.adam.hyper"


MODEL_KINDS = ("dense", "conv2d", "bias", "relu", "tanh", "flatten")


def install(tracer: Tracer) -> None:
    """Wrap every layer the benchmark reports, at the binding its caller uses."""
    # by module path: the package namespace rebinds `fsglab.quantize` to a function
    (convergence, data, history, hypernet, model, quantize, trainer) = (
        importlib.import_module(f"fsglab.{name}") for name in
        ("convergence", "data", "history", "hypernet", "model", "quantize", "trainer"))
    w = tracer.wrap
    w(trainer.FsgTrainer, "step", "trainer.fsg_step")
    w(trainer.SteTrainer, "step", "trainer.ste_step")
    w(trainer.FsgTrainer, "evaluate", "trainer.evaluate")
    w(trainer, "softmax_cross_entropy", "tensor.softmax_ce")
    w(trainer, "slow_forward_cached", "hypernet.slow.fwd", _count_slow)
    w(trainer, "slow_backward", "hypernet.slow.bwd")
    w(hypernet, "linear_recurrence", "ssm.scan_fwd", _count_scan)
    w(hypernet, "linear_recurrence_backward", "ssm.scan_bwd", _count_scan)
    w(trainer, "fast_forward", "hypernet.fast.fwd", _count_pairs)
    w(trainer, "fast_backward", "hypernet.fast.bwd")
    w(model, "matmul", "tensor.matmul", _count_matmul)
    w(model, "conv2d_forward", "tensor.conv2d_fwd", _count_conv_fwd)
    w(model, "conv2d_backward", "tensor.conv2d_bwd", _count_conv_bwd)
    for cls in (model.DenseLayer, model.Conv2dLayer, model.BiasLayer,
                model.ReluLayer, model.TanhLayer, model.FlattenLayer):
        w(cls, "forward", f"model.fwd.{cls.kind}")
        w(cls, "backward", f"model.bwd.{cls.kind}")
    # the FSG trainer and evaluation call preprocess/quantize through
    # fsglab.trainer; the STE trainer reaches them via QuantLayerState.refresh
    for mod in (trainer, quantize):
        w(mod, "preprocess", "quantize.preprocess")
        w(mod, "quantize", "quantize.quantize")
    w(trainer, "adam_step", _adam_key)
    w(history.GradientHistoryBuffer, "push", "history.push")
    w(history.GradientHistoryBuffer, "window", "history.window", _count_window)
    w(data, "gen_synthetic", "data.gen")
    w(data, "write_idx", "data.idx_write", _count_files)
    w(data, "load_idx", "data.idx_load")
    w(convergence, "run_fsg_convex", "convergence.run", _count_convex)
    w(convergence, "pk_recursion_check", "convergence.pk_check")
    w(convergence, "rate_fit", "convergence.fit_bound")
    w(convergence, "theorem_bound", "convergence.fit_bound")


# -- per-layer metrics -------------------------------------------------------

# name -> unit.  Times and counts are per iteration (one FSG step, the STE
# step on the same batch, and that step's share of the epoch's evaluation),
# data.* per set-up, convergence.* per convex call.
PER_LAYER = {
    "hypernet.slow.fwd_ms": "ms",
    "hypernet.slow.bwd_ms": "ms",
    "hypernet.slow.self_ms": "ms",
    "hypernet.slow.tokens": "count",
    "hypernet.slow.peak_mib": "MiB",
    "hypernet.slow.bytes_per_token": "B",
    "ssm.scan_fwd_ms": "ms",
    "ssm.scan_bwd_ms": "ms",
    "ssm.scan_elements": "count",
    "hypernet.fast.fwd_ms": "ms",
    "hypernet.fast.bwd_ms": "ms",
    "hypernet.fast.pairs": "count",
    "tensor.matmul.ms": "ms",
    "tensor.matmul.calls": "count",
    "tensor.matmul.flops": "flop",
    "tensor.conv2d_fwd.ms": "ms",
    "tensor.conv2d_bwd.ms": "ms",
    "tensor.conv2d.flops": "flop",
    **{f"model.{d}_ms.{k}": "ms" for d in ("fwd", "bwd") for k in MODEL_KINDS},
    "quantize.preprocess.ms": "ms",
    "quantize.quantize.ms": "ms",
    "optim.adam.base_ms": "ms",
    "optim.adam.hyper_ms": "ms",
    "optim.adam.calls": "count",
    "history.push_ms": "ms",
    "history.window_ms": "ms",
    "history.window_bytes": "B",
    "trainer.self_ms": "ms",
    "trainer.fsg_ste_ratio": "ratio",
    "trainer.final_train_loss": "nats",
    "data.gen_ms": "ms",
    "data.idx_write_ms": "ms",
    "data.idx_load_ms": "ms",
    "data.idx_bytes": "B",
    "convergence.run_ms": "ms",
    "convergence.pk_check_ms": "ms",
    "convergence.fit_bound_ms": "ms",
    "convergence.iterations": "count",
    "convergence.max_pk_residual": "abs",
    "convergence.bound_violations": "count",
    "trace.fsg_step_ms_mean": "ms",
    "trace.overhead_ms": "ms",
    "trace.coverage": "share",
}

# metrics derived from shapes alone; they repeat exactly for a given workload
COMPUTED = ("hypernet.slow.tokens", "ssm.scan_elements",
            "hypernet.fast.pairs", "tensor.matmul.calls", "tensor.matmul.flops",
            "tensor.conv2d.flops", "optim.adam.calls", "history.window_bytes",
            "data.idx_bytes", "convergence.iterations")


def _mean_ms(measured, samples) -> float:
    """Host-normalised mean, so that passes made at different host speeds compare."""
    return 1e3 * float(np.mean(measured.probe.normalised(samples)))


def per_layer(stats: dict, base, traced, slow_peak_mib: float) -> dict:
    """Per-layer values from the traced pass; `base` is the untraced pass of one seed."""
    st = stats.get
    zero = LayerStat()
    iters = max(len(traced.train.fsg_s), 1)
    calls = max(traced.convex.calls, 1)
    setups = max(len(traced.setup_s), 1)

    def ms(*keys, per=iters, self_only=False):
        return sum(1e3 * (st(k, zero).self_s if self_only else st(k, zero).total_s)
                   for k in keys) / per

    def count(key, what, per=iters):
        return st(key, zero).counts.get(what, 0.0) / per

    tokens = count("hypernet.slow.fwd", "tokens")
    step = st("trainer.fsg_step", zero)
    untraced_ms = _mean_ms(base, base.train.fsg_s)
    traced_ms = _mean_ms(traced, traced.train.fsg_s)
    out = {
        "hypernet.slow.fwd_ms": ms("hypernet.slow.fwd"),
        "hypernet.slow.bwd_ms": ms("hypernet.slow.bwd"),
        "hypernet.slow.self_ms": ms("hypernet.slow.fwd", "hypernet.slow.bwd", self_only=True),
        "hypernet.slow.tokens": tokens,
        "hypernet.slow.peak_mib": slow_peak_mib,
        # the ROADMAP headline: slow-net fwd+bwd peak over the tokens it scanned
        "hypernet.slow.bytes_per_token": slow_peak_mib * 2.0**20 / tokens if tokens else 0.0,
        "ssm.scan_fwd_ms": ms("ssm.scan_fwd"),
        "ssm.scan_bwd_ms": ms("ssm.scan_bwd"),
        "ssm.scan_elements": count("ssm.scan_fwd", "elements")
                             + count("ssm.scan_bwd", "elements"),
        "hypernet.fast.fwd_ms": ms("hypernet.fast.fwd"),
        "hypernet.fast.bwd_ms": ms("hypernet.fast.bwd"),
        "hypernet.fast.pairs": count("hypernet.fast.fwd", "pairs"),
        "tensor.matmul.ms": ms("tensor.matmul"),
        "tensor.matmul.calls": st("tensor.matmul", zero).calls / iters,
        "tensor.matmul.flops": count("tensor.matmul", "flops"),
        "tensor.conv2d_fwd.ms": ms("tensor.conv2d_fwd"),
        "tensor.conv2d_bwd.ms": ms("tensor.conv2d_bwd"),
        "tensor.conv2d.flops": count("tensor.conv2d_fwd", "flops")
                               + count("tensor.conv2d_bwd", "flops"),
        **{f"model.{d}_ms.{k}": ms(f"model.{d}.{k}") for d in ("fwd", "bwd")
           for k in MODEL_KINDS},
        "quantize.preprocess.ms": ms("quantize.preprocess"),
        "quantize.quantize.ms": ms("quantize.quantize"),
        "optim.adam.base_ms": ms("optim.adam.base"),
        "optim.adam.hyper_ms": ms("optim.adam.hyper"),
        "optim.adam.calls": (st("optim.adam.base", zero).calls
                             + st("optim.adam.hyper", zero).calls) / iters,
        "history.push_ms": ms("history.push"),
        "history.window_ms": ms("history.window"),
        "history.window_bytes": count("history.window", "bytes"),
        "trainer.self_ms": ms("trainer.fsg_step", self_only=True),
        "trainer.fsg_ste_ratio": untraced_ms / _mean_ms(base, base.train.ste_s),
        "trainer.final_train_loss": traced.train.last_loss,
        "data.gen_ms": ms("data.gen", per=setups),
        "data.idx_write_ms": ms("data.idx_write", per=setups),
        "data.idx_load_ms": ms("data.idx_load", per=setups),
        "data.idx_bytes": count("data.idx_write", "bytes", per=setups),
        "convergence.run_ms": ms("convergence.run", per=calls),
        "convergence.pk_check_ms": ms("convergence.pk_check", per=calls),
        "convergence.fit_bound_ms": ms("convergence.fit_bound", per=calls),
        "convergence.iterations": count("convergence.run", "iterations", per=calls),
        "convergence.max_pk_residual": traced.convex.max_residual,
        "convergence.bound_violations": traced.convex.bound_violations / calls,
        "trace.fsg_step_ms_mean": traced_ms,
        "trace.overhead_ms": traced_ms - untraced_ms,
        # share of FSG step time spent inside a wrapped layer
        "trace.coverage": 1.0 - step.self_s / step.total_s if step.total_s else 0.0,
    }
    return out
