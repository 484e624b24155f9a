"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload slow-wide --seeds 1-10 [--trace 0]

For each end-to-end metric it prints the median over the seeds and the
distance between the first and third quartiles (`statistics.quantiles`,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json.  A spread above a third of its bound is flagged: the
benchmark is meant to stay well inside its bounds.  With `--save` the
medians are merged into perfbench/baseline.json under the workload's name.
Runs are made one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_seed(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable if c == "python3" else c for c in bench["command"]]
    cmd += ["--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["per_layer" if args.trace else "end_to_end"]
    values = {m["name"]: [] for m in specs}
    walls = []
    for seed in parse_seeds(args.seeds):
        result = run_seed(bench, args.workload, seed, args.trace)
        walls.append(result["wall_s"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {result['wall_s']:.1f} s wall, "
              f"{result['attempted']} attempted, {result['failed']} failed", flush=True)
    summary = {}
    print(f"{'metric':<32}{'median':>14}{'spread':>9}{'bound':>7}")
    for m in specs:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = m.get("bound")
        flag = "  <-- over a third of the bound" if bound and spread > bound / 3 else ""
        print(f"{m['name']:<32}{med:>14.6g}{spread:>9.4f}"
              f"{bound if bound is not None else '':>7}{flag}")
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                              "unit": m["unit"], "runs": len(vals)}
    print(f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    if args.save:
        path = BENCH_DIR / "baseline.json"
        baseline = json.loads(path.read_text()) if path.exists() else {}
        baseline[f"{args.workload}/trace{args.trace}"] = {
            "seeds": args.seeds, "run_seconds": bench["run_seconds"],
            "wall_s_median": statistics.median(walls), "metrics": summary,
        }
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
