"""fsglab training benchmark.

    python3 perfbench/run.py --workload slow-wide --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  `--workload all` runs every workload in this process.
With `--trace 0` the last line of standard output is a JSON object holding
every end-to-end metric; with `--trace 1` it holds the per-layer metrics of
a traced run instead.  The lines before it are a readable table with units
and sample counts, and the full report (metadata, sample counts, per-layer
calls, self times and errors) is written to perfbench/out/.  The exit code
is 0 only when every operation succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name; Python's os.sysconf lacks it


def bootstrap() -> None:
    """Pin BLAS to one thread and import fsglab from this checkout's src/."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    if not (src / "fsglab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fsglab sources under {src}")
    sys.path.insert(0, str(src))
    import fsglab

    if Path(fsglab.__file__).resolve().parent != (src / "fsglab").resolve():
        raise SystemExit(f"perfbench: imported fsglab from {fsglab.__file__}, not {src}")


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads():
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    try:
        llc = int(ctypes.CDLL(None).sysconf(_SC_LEVEL3_CACHE_SIZE))
    except (OSError, AttributeError):
        llc = -1
    threads = _blas_threads()
    if threads is not None and threads > nproc:
        raise SystemExit(f"perfbench: {threads} BLAS threads on {nproc} cores")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_revision": _git_revision(), "nproc": nproc, "llc_bytes": llc,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    import workloads as wl

    spec = wl.WORKLOADS[name]
    meta = metadata(name, seed, seconds, trace)
    workdir = wl.make_workdir(BENCH_DIR)
    try:
        if trace:
            base, traced, tr, layers, tally = wl.run_traced(spec, seed, seconds, workdir)
            end_to_end = {}
            metrics = {k: {"value": v, "unit": wl.tracing.PER_LAYER[k]}
                       for k, v in layers.items()}
            detail = {"layers": {k: {"calls": s.calls, "total_ms": 1e3 * s.total_s,
                                     "self_ms": 1e3 * s.self_s, "errors": s.errors,
                                     **dict(s.counts)}
                                 for k, s in sorted(tr.stats.items())},
                      "iterations": len(traced.train.fsg_s),
                      "computed": list(wl.tracing.COMPUTED)}
            measured = base
        else:
            measured, end_to_end, tally = wl.run_untraced(spec, seed, seconds, workdir)
            metrics = {k: {"value": m.value, "unit": m.unit} for k, m in end_to_end.items()
                       if k in wl.END_TO_END}
            detail = {}
    finally:
        wl.remove_workdir(workdir)
    expected = wl.tracing.PER_LAYER if trace else wl.END_TO_END
    missing = [k for k in expected if k not in metrics]
    if missing:
        tally.fail(f"no value for {', '.join(missing)}")
    if measured.working_set_bytes:
        meta["working_set_bytes"] = measured.working_set_bytes
        if meta["llc_bytes"] > 0:
            meta["working_set_over_llc"] = measured.working_set_bytes / meta["llc_bytes"]
    report = {
        "metadata": meta,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "failures": tally.failures,
        "end_to_end": {k: vars(m) for k, m in end_to_end.items()},
        "final_train_loss": measured.train.last_loss,
        "epochs": measured.train.epochs,
        # each series with the midpoint time of every sample, in seconds
        "samples_s": {k: {"s": v, "at": v.at} for k, v in (
            ("setup", measured.setup_s), ("fsg_step", measured.train.fsg_s),
            ("ste_step", measured.train.ste_s), ("eval", measured.train.eval_s),
            ("fsg_epoch", measured.train.epoch_s), ("convex_run", measured.convex.run_s),
            ("host_probe", measured.probe.times),
            ("host_probe_python", measured.probe.python))},
        "metrics": metrics,
        **detail,
    }
    _print_report(report, trace)
    out = BENCH_DIR / "out" / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"report: {out.relative_to(ROOT)}")
    return report


def _print_report(report: dict, trace: int) -> None:
    meta = report["metadata"]
    print(f"== {meta['workload']}  seed={meta['seed']}  trace={trace}  "
          f"rev={meta['git_revision'][:12]}  nproc={meta['nproc']}  "
          f"llc={meta['llc_bytes'] / 2**20:.0f}MiB  python={meta['python']}  "
          f"numpy={meta['numpy']}  blas={meta['blas']} x{meta['blas_threads']}")
    if "working_set_bytes" in meta:
        ws = meta["working_set_bytes"] / 2**20
        print(f"   slow-net working set (computed): {ws:.1f} MiB"
              + (f" = {meta['working_set_over_llc']:.2f} x LLC"
                 if "working_set_over_llc" in meta else ""))
    print(f"   {'metric':<24}{'value':>14} {'unit':<6}{'samples':>8}  note")
    for name, m in report["end_to_end"].items():
        note = m["note"] if name in report["metrics"] else f"not in the result; {m['note']}"
        print(f"   {name:<24}{_fmt(m['value']):>14} {m['unit']:<6}{m['samples']:>8}  {note}")
    print(f"   {'failed_frac':<24}{_fmt(report['failed_frac']):>14} {'':<6}"
          f"{report['attempted']:>8}  {report['failed']} failed")
    print(f"   {'final_train_loss':<24}{_fmt(report['final_train_loss']):>14} {'nats':<6}"
          f"{1:>8}  after {report['epochs']} timed epochs")
    if trace:
        print(f"   per-layer ({report['iterations']} traced iterations; "
              f"computed counts repeat exactly):")
        for name, m in report["metrics"].items():
            tag = "  (computed)" if name in report["computed"] else ""
            print(f"   {name:<32}{_fmt(m['value']):>14} {m['unit']}{tag}")
    for line in report["failures"]:
        print(f"   FAILED: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    import workloads as wl

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in wl.WORKLOADS]
    if unknown or args.seconds <= 0:
        parser.error(f"unknown workload {unknown} (known: {', '.join(wl.WORKLOADS)}, all)"
                     if unknown else "--seconds must be positive")
    reports = {n: run_one(n, args.seed, args.seconds, args.trace) for n in names}
    if len(reports) == 1:
        metrics = reports[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, r in reports.items() for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in reports.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
