"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Criteria 1-6, 9 and 10 are the registered checks of `fsglab.checks.CHECKS`,
the same code `fsglab check` runs.  The behavioral checks (toy training,
rate bench) are real runs, take a few minutes combined and live only here.
"""

import time

import numpy as np

from fsglab import checks
from fsglab.convergence import (
    make_phi,
    make_quadratic_problem,
    pk_recursion_check,
    rate_fit,
    run_fsg_convex,
    theorem_bound,
)
from fsglab.data import gen_synthetic
from fsglab.model import Model
from fsglab.rng import Rng
from fsglab.trainer import FsgTrainer, LrDecay, OptimizerConfig, SteTrainer, TrainConfig


def report(criterion, ok, detail):
    line = checks.verdict_line(criterion, ok, detail)
    print(line)
    assert ok, line


def _registered_check_test(check):
    def test(self):
        report(checks.criterion_number(check), *check())
    return test


# One test class per registered check, named after it:
# `criterion_2_ssm_duality` runs as TestCriterion2SsmDuality::test_criterion_2.
for _check in checks.CHECKS:
    _name = "Test" + _check.__name__.title().replace("_", "")
    globals()[_name] = type(_name, (), {
        "__doc__": _check.__doc__,
        f"test_criterion_{checks.criterion_number(_check)}": _registered_check_test(_check),
    })


# -- criterion 7 configuration (desk-scale toy comparison) -------------------
# tanh hidden units: a signed activation removes the dead-unit absorbing
# state that an unscaled binary layer can push a relu net into.
SPIRAL_LAYERS = ["dense:2:32", "bias:32", "tanh", "dense:32:32:bin", "tanh",
                 "dense:32:2", "bias:2"]
SPIRAL_SEEDS = 5
SPIRAL_LR = 3e-3
SPIRAL_HYPER_LR = 1e-4
SPIRAL_BATCH = 160
SPIRAL_EPOCHS = 300


def spiral_config(seed, method_beta=0.3):
    return TrainConfig(
        alpha=1.0, beta=method_beta, l=6,
        base_optimizer=OptimizerConfig(kind="adam", lr=SPIRAL_LR),
        hyper_lr=SPIRAL_HYPER_LR, epochs=SPIRAL_EPOCHS, batch_size=SPIRAL_BATCH,
        lr_decay=LrDecay(every=0, factor=1.0), seed=seed,
        slow_kind="selective-ssm", fast_kind="mlp", fast_hidden=32,
        token_dim=8, state_dim=3, expand=1,
    )


def build_spiral_model(seed):
    model = Model.build(SPIRAL_LAYERS, Rng(seed))
    model.layers[5].w *= 0.1  # calibrated start: logits near zero
    return model


class TestCriterion7ToyTraining:
    def test_criterion_7(self):
        t0 = time.time()
        data = gen_synthetic("spirals", 400, 0.15, Rng(7))
        ste_final = []
        fsg_final = []
        for seed in range(SPIRAL_SEEDS):
            tr = SteTrainer(build_spiral_model(seed), spiral_config(seed))
            for _ in range(SPIRAL_EPOCHS):
                rec = tr.train_epoch(data.x, data.y)
            ste_final.append((rec.loss, rec.accuracy))
        for seed in range(SPIRAL_SEEDS):
            tr = FsgTrainer(build_spiral_model(seed), spiral_config(seed))
            for _ in range(SPIRAL_EPOCHS):
                rec = tr.train_epoch(data.x, data.y)
            fsg_final.append((rec.loss, rec.accuracy))
        ste_loss = float(np.median([v[0] for v in ste_final]))
        fsg_loss = float(np.median([v[0] for v in fsg_final]))
        ste_acc = float(np.median([v[1] for v in ste_final]))
        elapsed = time.time() - t0
        ok = fsg_loss <= ste_loss and ste_acc >= 0.90 and elapsed < 600.0
        report(7, ok,
               f"median final train loss: fsg={fsg_loss:.4f} <= ste={ste_loss:.4f}? "
               f"{fsg_loss <= ste_loss}; ste median acc={ste_acc:.3f} (>=0.90); "
               f"{elapsed:.0f}s")


class TestCriterion8ConvergenceRate:
    def test_criterion_8(self):
        t0 = time.time()
        in_bracket = 0
        bound_ok = True
        residuals = []
        for seed in range(10):
            rng = Rng(1000 + seed)
            problem = make_quadratic_problem(10, 64, 0.1, rng.derive("p"))
            phi = make_phi(10, 0.8, 1.25, rng.derive("phi"))
            trace = run_fsg_convex(problem, C=4.0, beta=0.5, T=10_000, repeats=3,
                                   rng=rng.derive("r"), phi=phi, slow_noise=0.5)
            slope = rate_fit(trace.ts, trace.gaps)
            if -1.2 <= slope <= -0.3:
                in_bracket += 1
            bound_ok &= bool(np.all(trace.gaps <= theorem_bound(trace, trace.ts)))
            residuals.append(pk_recursion_check(trace, 0.5))
        elapsed = time.time() - t0
        worst = max(residuals)
        ok = in_bracket >= 8 and bound_ok and worst < 1e-10 and elapsed < 120.0
        report(8, ok, f"slope in [-1.2,-0.3] for {in_bracket}/10 seeds, "
                      f"bound holds={bound_ok}, max recursion residual = {worst:.2e}, "
                      f"{elapsed:.0f}s")


