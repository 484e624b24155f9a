"""Command-line front door.

Subcommands:
    train <config>              train per config (fsg or ste method)
    ablate <config> --sweep A   sweep beta=0.1,0.3 | l=3..7 | slow=lstm,ssm
    bench-convergence <config>  run the convex-rate bench
    check                       run the fast acceptance criteria (fsglab.checks)
    dump-curve <metrics.csv>    project a loss-curve CSV for plotting

Every output-producing run writes a manifest.json (config hash, seed, start
time, version) next to its outputs.  The FSGLAB_OUTPUT_ROOT environment
variable re-roots relative output directories.

Exit codes: 0 success; 1 a `check` criterion failed; 2 usage or config error
(ConfigError), including a malformed sweep spec and an IDX path key set for
a dataset kind that does not read it, a model whose layer shapes do not fit
the data or each other (DimensionError, naming the layer), a label not below
the model's output width (DimensionError), a malformed layer spec, a
repeated `bin` included (ContractError) or a value outside its domain
(DomainError), an empty dataset or gradient history (ContractError,
EmptyHistoryError), a rate fit on invalid gaps (FitError) or an input file
that cannot be read, such as a missing config, IDX file or metrics CSV
(OSError, naming the path); 3 an input file does not match its format, such
as a malformed metrics CSV row (FormatError); 4 training or the convex bench
diverged (DivergenceError, naming the iteration, and the layer for
non-finite weights) or a numeric evaluation was non-finite
(EvaluationError). Errors print one line to stderr (`_EXIT_CODES`). Input
errors leave no out directory behind: the config, the data and the models
are read and built, and each trainer is evaluated on the first batch of
training samples (`check_run`), before the directory is made.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import checks
from .config import (BENCH_RULES, DATA_RULES, RunConfig, check, config_hash, load_config,
                     parse_value, save_config)
from .convergence import (
    make_phi,
    make_quadratic_problem,
    pk_recursion_check,
    rate_fit,
    run_fsg_convex,
    theorem_bound,
)
from .data import gen_synthetic, load_idx
from .errors import (ConfigError, ContractError, DimensionError, DivergenceError, DomainError,
                     EmptyHistoryError, EvaluationError, FitError, FormatError)
from .metrics import MetricsWriter, dump_curve, write_manifest
from .model import Model
from .rng import Rng
from .trainer import FsgTrainer, SteTrainer

# error class -> (exit code, prefix of its one-line stderr message)
_EXIT_CODES = {
    ConfigError: (2, "config error"),
    ContractError: (2, "error"),
    DimensionError: (2, "error"),
    DomainError: (2, "error"),
    EmptyHistoryError: (2, "error"),
    FitError: (2, "error"),
    OSError: (2, "error"),
    FormatError: (3, "error"),
    DivergenceError: (4, "error"),
    EvaluationError: (4, "error"),
}


def resolve_outdir(cfg: RunConfig, override=None) -> Path:
    out = Path(override) if override else Path(cfg["output_dir"])
    root = os.environ.get("FSGLAB_OUTPUT_ROOT")
    if root and not out.is_absolute():
        out = Path(root) / out
    out.mkdir(parents=True, exist_ok=True)
    return out


def build_datasets(cfg: RunConfig):
    check(DATA_RULES, cfg.__getitem__)
    kind = cfg["dataset.kind"]
    if kind == "idx":
        train = load_idx(cfg["dataset.images_path"], cfg["dataset.labels_path"])
        test = None
        if cfg["dataset.test_images_path"]:
            test = load_idx(cfg["dataset.test_images_path"], cfg["dataset.test_labels_path"])
        return train, test
    rng = Rng(cfg["dataset.seed"])
    train = gen_synthetic(kind, cfg["dataset.n_per_class"], cfg["dataset.noise"],
                          rng.derive("train"), classes=cfg["dataset.classes"])
    test = None
    if cfg["dataset.test_per_class"] > 0:
        test = gen_synthetic(kind, cfg["dataset.test_per_class"], cfg["dataset.noise"],
                             rng.derive("test"), classes=cfg["dataset.classes"])
    return train, test


def build_trainer(cfg: RunConfig):
    model = Model.build(cfg["model.layers"], Rng(cfg["seed"]))
    tc = cfg.to_train_config()
    cls = FsgTrainer if cfg["method"] == "fsg" else SteTrainer
    return cls(model, tc)


def check_run(run) -> None:
    """Raise what the first step would, before any output: evaluate the trainer (pure) on a
    first-step-sized batch, then bound every train and test label by the model's width."""
    _, (train, test), trainer = run
    batch = slice(trainer.cfg.batch_size)
    trainer.evaluate(train.x[batch], train.y[batch], "train")
    width = trainer.model.forward(train.x[:1])[0].shape[1]
    top = max(int(d.y.max()) for d in (train, test) if d is not None and d.y.size)
    if top >= width:
        raise DimensionError(f"label {top} is not below the model's output width {width}")


def run_train(run, outdir: Path) -> Path:
    """Train a run built by `build_datasets` and `build_trainer`: (cfg, (train, test), trainer)."""
    cfg, (train, test), trainer = run
    save_config(cfg, outdir / "config.txt")
    write_manifest(outdir / "manifest.json", config_hash(cfg), cfg["seed"],
                   {"command": "train", "method": cfg["method"]})
    metrics_path = outdir / "metrics.csv"
    writer = MetricsWriter(metrics_path)
    for _ in range(cfg["epochs"]):
        writer.write(trainer.train_epoch(train.x, train.y))
        if test is not None:
            writer.write(trainer.evaluate(test.x, test.y, "test"))
    return metrics_path


_SWEEP_KEYS = {"beta": "beta", "l": "l", "slow": "slow_kind"}


def _parse_sweep(spec: str):
    """Returns (config key, display tag, values); the values are never empty."""
    if "=" not in spec:
        raise ConfigError(f"sweep spec must be key=values, got {spec!r}")
    display, raw = spec.split("=", 1)
    display = display.strip()
    if display not in _SWEEP_KEYS:
        raise ConfigError(f"sweep key must be beta, l or slow, got {display!r}")
    key, where = _SWEEP_KEYS[display], f"bad value in sweep spec {spec!r}"
    if key == "l" and ".." in raw:
        lo, hi = (parse_value(key, v, where) for v in raw.split("..", 1))
        values = list(range(lo, hi + 1))
    else:
        values = [parse_value(key, v, where) for v in raw.split(",") if v.strip()]
    values = [{"ssm": "selective-ssm"}.get(v, v) for v in values]  # the slow net's short name
    if not values:
        raise ConfigError(f"sweep spec {spec!r} has no values")
    return key, display, values


def build_ablation(cfg: RunConfig, sweep):
    """(tag, run) per value of a parsed sweep (`_parse_sweep`), checked runs as `run_train`
    takes them; no swept key changes the data, so the runs share one build of the datasets."""
    key, display, values = sweep
    data = build_datasets(cfg)
    runs = []
    for value in values:
        sub = RunConfig(dict(cfg.values))
        sub.values[key] = value
        runs.append((f"{display}_{value}".replace("/", "-"), (sub, data, build_trainer(sub))))
        check_run(runs[-1][1])
    return runs


def run_bench(cfg: RunConfig, outdir: Path):
    v = cfg.values
    dim, t_max = v["bench.dim"], v["bench.t"]
    seeds, repeats = v["bench.seeds"], v["bench.repeats"]
    slopes, residuals, gaps, errs = [], [], [], []
    bound_ok = True
    for s in range(seeds):
        rng = Rng(v["seed"] + 1000 * s)
        problem = make_quadratic_problem(dim, v["bench.components"], v["bench.noise"],
                                         rng.derive("problem"))
        phi = make_phi(dim, v["bench.omega"], v["bench.theta"], rng.derive("phi"))
        trace = run_fsg_convex(problem, C=v["bench.c"], beta=v["beta"], T=t_max,
                               repeats=repeats, rng=rng.derive("runs"), phi=phi,
                               slow_noise=v["bench.slow_noise"])
        if len(trace.failed_repeats) == repeats:
            first = min(len(trace.phi_g[r]) for r in trace.failed_repeats)
            raise DivergenceError(first, f"bench seed {s}: every repeat diverged, "
                                         f"the first at iteration {first}")
        slopes.append(rate_fit(trace.ts, trace.gaps))
        residuals.append(pk_recursion_check(trace, v["beta"]))
        bound_ok &= bool(np.all(trace.gaps <= theorem_bound(trace, trace.ts)))
        gaps.append(trace.gaps)
        errs.append(trace.gap_stderr)
    gap_path = outdir / "bench_gap.csv"
    with open(gap_path, "w", encoding="utf-8") as fh:
        fh.write("t,mean_gap,stderr\n")
        # every seed logs the same ts; each row is the mean over the seeds, in seed order
        for t, g, e in zip(trace.ts, np.transpose(gaps), np.transpose(errs)):
            fh.write(f"{int(t)},{np.mean(g)!r},{np.mean(e)!r}\n")
    summary = {
        "slopes": slopes,
        "max_pk_residual": float(np.max(residuals)),  # a NaN propagates
        "bound_holds": bool(bound_ok),
        "config": {k: v[k] for k in sorted(v.keys()) if k.startswith("bench.")},
    }
    with open(outdir / "bench_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fsglab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    p_train = sub.add_parser("train", help="train per config")
    p_train.add_argument("config")
    p_train.add_argument("--out", default=None)

    p_ablate = sub.add_parser("ablate", help="sweep one hyperparameter")
    p_ablate.add_argument("config")
    p_ablate.add_argument("--sweep", required=True)
    p_ablate.add_argument("--out", default=None)

    p_bench = sub.add_parser("bench-convergence", help="convex-rate bench")
    p_bench.add_argument("config")
    p_bench.add_argument("--out", default=None)

    sub.add_parser("check", help="run the property suite")

    p_dump = sub.add_parser("dump-curve", help="project loss curve from metrics CSV")
    p_dump.add_argument("metrics")
    p_dump.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    try:
        # every input is read and checked before the out directory is made
        if args.command == "train":
            cfg = load_config(args.config)
            run = (cfg, build_datasets(cfg), build_trainer(cfg))
            check_run(run)
            path = run_train(run, resolve_outdir(cfg, args.out))
            print(f"wrote {path}")
            return 0
        if args.command == "ablate":
            cfg = load_config(args.config)
            runs = build_ablation(cfg, _parse_sweep(args.sweep))
            outdir = resolve_outdir(cfg, args.out)
            write_manifest(outdir / "manifest.json", config_hash(cfg), cfg["seed"],
                           {"command": "ablate", "sweep": args.sweep})
            for tag, run in runs:
                (outdir / tag).mkdir(exist_ok=True)
                print(f"wrote {run_train(run, outdir / tag)}")
            return 0
        if args.command == "bench-convergence":
            cfg = load_config(args.config)
            check(BENCH_RULES, cfg.__getitem__)
            outdir = resolve_outdir(cfg, args.out)
            write_manifest(outdir / "manifest.json", config_hash(cfg), cfg["seed"],
                           {"command": "bench-convergence"})
            summary = run_bench(cfg, outdir)
            print(json.dumps({k: summary[k] for k in ("slopes", "max_pk_residual",
                                                      "bound_holds")}, indent=2))
            return 0
        if args.command == "check":
            return 0 if checks.run_all() else 1
        if args.command == "dump-curve":
            out = args.out or (str(args.metrics) + ".curve.csv")
            rows = dump_curve(args.metrics, out)
            write_manifest(Path(str(out) + ".manifest.json"), "-", 0,
                           {"command": "dump-curve", "rows": rows})
            print(f"wrote {out}")
            return 0
    except tuple(_EXIT_CODES) as exc:
        code, prefix = next(v for cls, v in _EXIT_CODES.items() if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    parser.print_usage(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
