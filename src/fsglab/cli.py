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

Exit codes: 0 success; 1 a `check` criterion failed; 2 usage or config
error (ConfigError), including a malformed sweep spec, a model whose layer
shapes do not fit the data or each other (DimensionError, naming the layer),
a malformed layer spec (ContractError) or a value outside its domain
(DomainError), an empty gradient history (EmptyHistoryError) or a rate fit
on invalid gaps (FitError); 3 an input file does not match its format
(FormatError); 4 training or the convex bench diverged (DivergenceError,
naming the iteration, and the layer for non-finite weights) or a numeric
evaluation was non-finite (EvaluationError).  Errors print one line to
stderr (`_EXIT_CODES`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import checks
from .config import RunConfig, config_hash, load_config, save_config
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


def run_train(cfg: RunConfig, outdir: Path) -> Path:
    train, test = build_datasets(cfg)
    trainer = build_trainer(cfg)
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


def _parse_sweep(spec: str):
    """Returns (config key, display tag, values)."""
    if "=" not in spec:
        raise ConfigError(f"sweep spec must be key=values, got {spec!r}")
    key, raw = spec.split("=", 1)
    key = key.strip()
    try:
        if key == "beta":
            return "beta", "beta", [float(v) for v in raw.split(",") if v.strip()]
        if key == "l":
            if ".." in raw:
                lo, hi = raw.split("..", 1)
                return "l", "l", list(range(int(lo), int(hi) + 1))
            return "l", "l", [int(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad value in sweep spec {spec!r}: {exc}") from None
    if key == "slow":
        names = {"ssm": "selective-ssm", "lstm": "lstm", "off": "off"}
        vals = []
        for v in raw.split(","):
            v = v.strip()
            if v not in names:
                raise ConfigError(f"unknown slow-net {v!r} in sweep")
            vals.append(names[v])
        return "slow_kind", "slow", vals
    raise ConfigError(f"sweep key must be beta, l or slow, got {key!r}")


def run_ablate(cfg: RunConfig, sweep: str, outdir: Path):
    key, display, values = _parse_sweep(sweep)
    produced = []
    for value in values:
        sub = RunConfig(dict(cfg.values))
        sub.values[key] = value
        tag = f"{display}_{value}".replace("/", "-")
        subdir = outdir / tag
        subdir.mkdir(parents=True, exist_ok=True)
        produced.append(run_train(sub, subdir))
    return produced


def run_bench(cfg: RunConfig, outdir: Path):
    v = cfg.values
    dim, t_max = v["bench.dim"], v["bench.t"]
    seeds, repeats = v["bench.seeds"], v["bench.repeats"]
    slopes, residuals = [], []
    bound_ok = True
    rows = None
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
        if rows is None:
            rows = [(int(t), [g], [e]) for t, g, e in
                    zip(trace.ts, trace.gaps, trace.gap_stderr)]
        else:
            for i, (t, g, e) in enumerate(zip(trace.ts, trace.gaps, trace.gap_stderr)):
                rows[i][1].append(g)
                rows[i][2].append(e)
    gap_path = outdir / "bench_gap.csv"
    with open(gap_path, "w", encoding="utf-8") as fh:
        fh.write("t,mean_gap,stderr\n")
        for t, gaps, errs in rows:
            fh.write(f"{t},{np.mean(gaps)!r},{np.mean(errs)!r}\n")
    summary = {
        "slopes": slopes,
        "max_pk_residual": max(residuals),
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
        if args.command == "train":
            cfg = load_config(args.config)
            path = run_train(cfg, resolve_outdir(cfg, args.out))
            print(f"wrote {path}")
            return 0
        if args.command == "ablate":
            cfg = load_config(args.config)
            outdir = resolve_outdir(cfg, args.out)
            write_manifest(outdir / "manifest.json", config_hash(cfg), cfg["seed"],
                           {"command": "ablate", "sweep": args.sweep})
            for path in run_ablate(cfg, args.sweep, outdir):
                print(f"wrote {path}")
            return 0
        if args.command == "bench-convergence":
            cfg = load_config(args.config)
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
