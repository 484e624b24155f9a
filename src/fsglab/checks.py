"""The fast acceptance criteria, one function each, behind `fsglab check`.

Each check returns (ok, detail) and draws exactly the data of its acceptance
criterion; `tests/test_acceptance.py` runs the same `CHECKS`.  Criteria 7
(spirals training) and 8 (rate bench) are long real runs and live only in
the test suite.
"""

from __future__ import annotations

import contextlib
import io
import math
import tempfile
import time
from pathlib import Path

import numpy as np

from .config import LrDecay, OptimizerConfig, TrainConfig
from .convergence import make_quadratic_problem, pk_recursion_check, run_fsg_convex
from .data import gen_synthetic
from .history import GradientHistoryBuffer
from .hypernet import (FastNetParams, HyperNetBundle, fast_backward, fast_forward, named_leaves,
                       slow_backward, slow_forward)
from .model import DenseLayer, Model
from .optim import momentum_expand
from .quantize import preprocess, quantize
from .rng import Rng
from .ssm import discretize_zoh, ssm_conv, ssm_scan
from .tensor import (conv2d_backward, conv2d_forward, finite_diff, finite_diff_check,
                     finite_grad, matmul)
from .trainer import FsgTrainer, SteTrainer


def _o1_slow_bundle(seed, slow_kind, d=3, n_state=2, expand=2):
    bundle = HyperNetBundle.init(Rng(seed), n_layers=2, fast_kind="off",
                                 slow_kind=slow_kind, fast_hidden=1, d=d,
                                 n_state=n_state, expand=expand)
    r = Rng(seed ^ 0xACCE)
    for name, arr in bundle.named_params():
        if name == "slow.a_log":
            arr[...] = r.uniforms(arr.shape) * 1.2 - 0.6
        else:
            arr[...] = 0.8 * r.normals(arr.shape)
    return bundle


def _group_norm_fd(loss, arr, analytic):
    """Central FD of a whole live parameter group, compared in infinity norm."""
    analytic = finite_grad(analytic)
    fd = finite_diff(lambda _: loss(), arr)
    return float(np.max(np.abs(fd - analytic)) / (np.max(np.abs(analytic)) + 1e-12))


def criterion_1_gradients():
    """Every backward matches central finite differences: < 1e-5 for plain
    layers, < 1e-4 for hypernetwork paths, >= 20 random instances each.

    Plain layers and the fast net are checked per coordinate with the
    documented relative-error formula.  The slow net and the end-to-end
    hypernetwork paths are checked per parameter group in infinity norm,
    because the finite-difference noise floor is set by the O(1) loss value
    and individual near-zero gradient coordinates carry no signal."""
    t0 = time.time()
    rng = Rng(20240)
    errs = {"plain": [], "fast": [], "slow": [], "end-to-end": []}
    for _ in range(20):  # dense
        x = rng.normals((3, 4))
        w = rng.normals((4, 2))
        cot = rng.normals((3, 2))
        g_x, grads = DenseLayer(4, 2).backward((x, w), cot)
        errs["plain"].append(
            finite_diff_check(lambda p: float(np.sum(cot * matmul(p, w))), x, g_x))
        errs["plain"].append(
            finite_diff_check(lambda p: float(np.sum(cot * matmul(x, p))), w, grads["w"]))
    for k in range(20):  # conv2d
        x = rng.normals((1, 2, 4, 4))
        w = rng.normals((2, 2, 2, 2))
        stride, pad = (1, 1) if k % 2 else (2, 0)
        cot = rng.normals(conv2d_forward(x, w, stride, pad).shape)
        g_x, g_w = conv2d_backward(x, w, cot, stride, pad)
        errs["plain"].append(finite_diff_check(
            lambda p: float(np.sum(cot * conv2d_forward(p, w, stride, pad))), x, g_x))
        errs["plain"].append(finite_diff_check(
            lambda p: float(np.sum(cot * conv2d_forward(x, p, stride, pad))), w, g_w))

    for k in range(20):  # fast net, all parameter groups per coordinate
        p = FastNetParams.init(Rng(300 + k), hidden=4)
        p.b1[...] = 0.3 * rng.normals(p.b1.shape)
        p.b2[...] = 0.3 * rng.normals(p.b2.shape)
        g = rng.normals((2, 2))
        wh = rng.normals((2, 2))
        cot = rng.normals((2, 2))
        grads = fast_backward(g, wh, p, cot)
        for name, arr in named_leaves(p, "fast."):
            errs["fast"].append(finite_diff_check(
                lambda _: float(np.sum(cot * fast_forward(g, wh, p))), arr, grads[name]))

    for k in range(20):  # slow net, both variants, incl. lre/w_a/w_head
        kind = "selective-ssm" if k % 2 == 0 else "lstm"
        bundle = _o1_slow_bundle(400 + k, kind)
        hist = rng.normals(8) * 0.5
        cot = rng.normals((2, 2))
        grads = slow_backward(1, hist, bundle, (2, 2), cot)
        for name, arr in bundle.named_params():
            errs["slow"].append(_group_norm_fd(
                lambda: float(np.sum(cot * slow_forward(1, hist, bundle, (2, 2)))),
                arr, grads[name]))

    blobs = gen_synthetic("blobs", 12, 0.5, Rng(31))
    for k in range(20):  # end-to-end through the re-parameterized forward
        cfg = TrainConfig(alpha=0.7, beta=0.4, l=2,
                          base_optimizer=OptimizerConfig(kind="sgd", lr=0.1),
                          hyper_lr=1e-3, epochs=1, batch_size=8,
                          lr_decay=LrDecay(every=0, factor=1.0), seed=k,
                          slow_kind="selective-ssm", fast_kind="mlp",
                          fast_hidden=4, token_dim=3, state_dim=2, expand=1)
        tr = FsgTrainer(Model.build(["dense:2:4:bin", "bias:4", "tanh",
                                     "dense:4:2", "bias:2"], Rng(500 + k)), cfg)
        r = Rng(600 + k)
        for name, arr in tr.bundle.named_params():
            if name == "slow.a_log":
                # long-memory systems keep the leading embedding token's
                # influence on the sliced outputs above the FD noise floor
                arr[...] = -2.0 + 1.7 * r.uniforms(arr.shape)
            else:
                arr[...] = 0.8 * r.normals(arr.shape)
        tr.step(blobs.x[:8], blobs.y[:8])
        for i in tr.bin_indices:
            tr.buffers[i].load(r.normals((1, tr.buffers[i].xi)))
            tr.prev_quant_grad[i] = r.normals(tr.model.layers[i].w.shape)
        batch = (blobs.x[8:16], blobs.y[8:16])
        hyper = tr._compute_step(*batch, surrogate=True)["hyper_grads"]
        for name, arr in tr.bundle.named_params():
            errs["end-to-end"].append(
                _group_norm_fd(lambda: tr.surrogate_loss(*batch), arr, hyper[name]))

    elapsed = time.time() - t0
    worst = {group: float(np.max(values)) for group, values in errs.items()}
    ok = (worst["plain"] < 1e-5 and worst["fast"] < 1e-5 and worst["slow"] < 1e-4
          and worst["end-to-end"] < 1e-4 and elapsed < 60.0)
    detail = " ".join(f"{group}={err:.2e}" for group, err in worst.items())
    return ok, f"{detail} in {elapsed:.1f}s"


def criterion_2_ssm_duality():
    """ZOH hand values, and the recurrent scan equals the convolution form."""
    a_bar, b_bar = discretize_zoh(np.array(-1.0), np.array(1.0), np.array(0.1))
    zoh_ok = (abs(float(a_bar) - 0.904837418035960) < 1e-9
              and abs(float(b_bar) - 0.095162581964040) < 1e-9
              and abs(float(a_bar) - math.exp(-0.1)) < 1e-12
              and abs(float(b_bar) - (1.0 - math.exp(-0.1))) < 1e-12)
    rng = Rng(47)
    diffs = []
    for _ in range(200):
        n = 1 + rng.integer(4)
        a = -(0.05 + rng.uniforms(n))
        ab, bb = discretize_zoh(a, rng.normals(n), np.array(0.1 + 0.6 * rng.uniform()))
        c = rng.normals(n)
        x = rng.normals(4 + rng.integer(61))
        diffs.append(np.max(np.abs(ssm_scan(ab, bb, c, x) - ssm_conv(ab, bb, c, x))))
    worst = float(np.max(diffs))
    return zoh_ok and worst < 1e-10, (f"zoh hand values ok={zoh_ok}, duality max "
                                      f"diff={worst:.2e} over 200 systems")


def criterion_3_momentum_identity():
    """Iterated momentum equals its closed-form expansion."""
    rng = Rng(48)
    diffs = []
    for _ in range(100):
        beta = rng.uniform()
        alpha = 0.05 + rng.uniform()
        grads = [rng.normals(4) for _ in range(20)]
        v = np.zeros(4)
        for g in grads:
            v = beta * v - alpha * g
        diffs.append(np.max(np.abs(v - momentum_expand(beta, alpha, grads))))
    worst = float(np.max(diffs))
    return worst < 1e-12, f"max |iterated - closed form| = {worst:.2e} over 100 sequences"


def _forward_states(tr, data, steps: int):
    """(loss, forward state) of each of `steps` training steps: every
    non-binarized parameter as it was before the step, plus each binarized
    layer's forward weight."""
    binarized = {f"layer{i}.w" for i in tr.bin_indices}
    states = []
    while len(states) < steps:
        for bx, by in tr._batches(data.x, data.y):
            state = {name: arr.copy() for name, arr in tr.model.named_params()
                     if name not in binarized}
            loss, info = tr.step(bx, by)
            state.update({f"layer{i}.w_fwd": s.w_fwd for i, s in info["layers"].items()})
            states.append((loss, state))
            if len(states) == steps:
                break
    return states


def criterion_4_degeneracy():
    """Identity fast net and no slow net reproduce the STE baseline bit for bit."""
    data = gen_synthetic("blobs", 40, 0.4, Rng(17))
    layers = ["dense:2:8", "bias:8", "relu", "dense:8:2:bin", "bias:2"]
    cfg = dict(alpha=1.0, beta=0.3, l=3,
               base_optimizer=OptimizerConfig(kind="sgd", lr=0.05),
               hyper_lr=1e-3, epochs=1, batch_size=16,
               lr_decay=LrDecay(every=0, factor=1.0), seed=99,
               slow_kind="off", fast_kind="identity")
    fsg = _forward_states(FsgTrainer(Model.build(layers, Rng(99)), TrainConfig(**cfg)), data, 50)
    ste = _forward_states(SteTrainer(Model.build(layers, Rng(99)), TrainConfig(**cfg)), data, 50)
    # the guard against a vacuous pass: 50 states each, every one with layer 3's weights
    ok = len(fsg) == len(ste) == 50 and all(
        "layer3.w_fwd" in state_f and state_f.keys() == state_s.keys() and loss_f == loss_s
        and all(np.array_equal(state_f[key], state_s[key]) for key in state_s)
        for (loss_f, state_f), (loss_s, state_s) in zip(fsg, ste))
    return ok, ("identity-fast/off-slow forward states and losses "
                "bit-identical to the baseline for 50 steps")


def criterion_5_binarization_contract():
    """Preprocessing lands in [0, 1], 1-bit quantization in {-1, +1}."""
    rng = Rng(49)
    ok = True
    for i in range(10_000):
        w = rng.normals((2, 3)) * 10.0 ** (i % 7 - 3)
        w_hat, _ = preprocess(w)
        if (w_hat.min() < 0.0 or w_hat.max() > 1.0
                or not np.all(np.isin(quantize(w_hat, 1), (-1.0, 1.0)))):
            ok = False
            break
    w_hat, da = preprocess(np.zeros((4, 4)))
    guard_ok = np.all(w_hat == 0.5) and np.all(da == 0.0) and np.all(np.isfinite(w_hat))
    return bool(ok and guard_ok), ("10^4 random tensors map to {-1,+1}, w_hat in [0,1], "
                                   "zero-tensor guard clean")


def criterion_6_hgs_contract():
    """The history buffer is a FIFO of the last l gradients, read oldest first."""
    ok = True
    for cap in (1, 3, 6):
        rng = Rng(50 + cap)
        buf = GradientHistoryBuffer(0, 3, cap)
        grads = []
        for t in range(1, 21):
            g = rng.normals(3)
            buf.push(g)
            grads.append(g)
            win = buf.window()
            ok &= (len(buf) == min(t, cap) and win.shape == (3 * min(t, cap),)
                   and np.array_equal(win[-3:], grads[-1]))
    return ok, ("length = min(t, l) and window tail = newest gradient, "
                "exhaustive t <= 20, l in {1, 3, 6}")


def criterion_9_pk_recursion():
    """The auxiliary-sequence recursion holds to rounding for several beta."""
    residuals = []
    rng = Rng(2100)
    for beta in (0.0, 0.3, 0.5, 0.9):
        problem = make_quadratic_problem(4, 16, 0.2, rng.derive(f"p{beta}"))
        trace = run_fsg_convex(problem, C=1.0, beta=beta, T=300, repeats=2,
                               rng=rng.derive(f"r{beta}"), slow_noise=0.1)
        residuals.append(pk_recursion_check(trace, beta))
    worst = float(np.max(residuals))
    return worst < 1e-10, f"max recursion residual over {len(residuals)} runs = {worst:.2e}"


def criterion_10_determinism():
    """Two `fsglab train` runs of one config write byte-identical metrics."""
    from .cli import main  # cli imports this module

    cfg_text = "\n".join([
        "method = fsg", "epochs = 3", "batch_size = 8", "l = 2", "seed = 5",
        "fast_hidden = 6", "token_dim = 3", "state_dim = 2", "expand = 1",
        "dataset.kind = blobs", "dataset.n_per_class = 10", "dataset.noise = 0.3",
        "model.layers = dense:2:4, bias:4, relu, dense:4:2:bin, bias:2",
        "lr_decay.factor = 1.0",
    ])
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        root = Path(tmp)
        (root / "det.cfg").write_text(cfg_text + "\n")
        runs = []
        for out in (root / "r1", root / "r2"):
            code = main(["train", str(root / "det.cfg"), "--out", str(out)])
            if code != 0:
                return False, f"train exited with code {code}"
            runs.append((out / "metrics.csv").read_bytes())
    return runs[0] == runs[1], (f"two train runs wrote byte-identical metrics "
                                f"({len(runs[0])} bytes)")


CHECKS = [
    criterion_1_gradients,
    criterion_2_ssm_duality,
    criterion_3_momentum_identity,
    criterion_4_degeneracy,
    criterion_5_binarization_contract,
    criterion_6_hgs_contract,
    criterion_9_pk_recursion,
    criterion_10_determinism,
]


def criterion_number(check) -> int:
    """The acceptance criterion a check implements, from its `criterion_<n>_` name."""
    return int(check.__name__.split("_")[1])


def verdict_line(criterion: int, ok: bool, detail: str) -> str:
    return f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"


def run_all(printer=print) -> bool:
    all_ok = True
    for check in CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, not a stop
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= bool(ok)
        printer(verdict_line(criterion_number(check), ok, detail))
    return all_ok
