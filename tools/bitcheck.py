"""Byte-identity check of two source trees over 22 small training configs and
two convex-rate benches.

    python tools/bitcheck.py <src_a> <src_b> [--configs NAME,NAME,...]

Each tree is a `src` directory holding the `fsglab` package, or a checkout
whose `src/` does.  For every config, each tree runs `fsglab train` in its
own process (3 epochs, record_timing = false), and the script prints three
sha256 digests from both trees: of the run's metrics.csv, of the final model
parameters and of the final hypernetwork parameters ("-" for the
straight-through trainer, which has none).  The child computes both parameter
digests itself, over the name and bytes of each (name, array) of
`model.named_params()` and `bundle.named_params()`, so two trees are compared
on one definition.  The two `bench-convergence` entries, at bench.dim 4 and
10, run that command instead and print the sha256 of bench_gap.csv and of
bench_summary.json; its manifest holds a timestamp and is not compared.  At
dim 4 each gap sums fewer squares than numpy's 8 pairwise-summation lanes,
so only the dim-10 entry shows a changed order of that sum.  It exits 1 if any digest
differs.  Each child also saves its parameter arrays, and where a `model` or
`bundle` digest differs the script prints every array whose bytes differ,
with max |a - b| / max |a| over its entries.  Where a train run's
metrics.csv differs, it prints the loss of the last train row from both
trees and the largest |loss a - loss b| / |loss a| over the rows.

The configs cover both trainers, every optimizer, the fast and slow net
kinds, beta = 1, the composed history, 2-bit weights, both synthetic
generators (`fsg-blobs-3` draws three blobs classes and a test split), a
conv net on IDX images and two 64x64 binarized layers at the paper's
slow-net dims.  Two run `tensor.matmul` at the benchmark's shapes:
`wide-full-batch` puts a 400-sample batch through the 64-wide stack (the
transposed kernel on rows of 400), and `conv-head-2048` a
`flatten, dense:2048:10` head on 16x16 IDX images (contractions 2048 long).
`conv2d_forward` picks its operation per weight: +-1 adds or subtracts a
tap's view, any other weight is multiplied first.  `fsg-conv-bit-width-2`
runs both in one call: on the 2-bit grid {-1, -1/3, 1/3, 1} some weights of
its one-channel binarized conv are +-1 and the others are not.
`fsg-conv-stride-2` runs a padded stride-2 binarized conv, whose taps read
the four stride phases of its input planes.

At the default hyper_lr the LSTM and composed-history configs write the
same metrics.csv bytes as slow_kind = off, so they run with hyper_lr = 0.1,
where their bytes depend on the slow net.  The selective-SSM configs write
slow_kind = off's metrics bytes at either rate, because the selective slow
net is numerically inert at these dims, so only their bundle digest
compares the slow net.  That digest covers both branches of the slow net's
ufunc-buffer scope (`hypernet._walk_buffer`): the `wide-*` entries run the
default dims, d_inner * N = 32 * 8 = 256, so their chunk walks run inside
the scope, and the `SMALL` and `CONV` entries, at d_inner * N = 24 and 12,
run their walks at the caller's buffer.
"""

from __future__ import annotations

import argparse
import csv
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SMALL = ["epochs = 3", "record_timing = false", "lr_decay.factor = 1.0", "seed = 5",
         "batch_size = 16", "l = 3", "fast_hidden = 6", "token_dim = 4", "state_dim = 3",
         "expand = 2", "dataset.kind = spirals", "dataset.n_per_class = 24",
         "model.layers = dense:2:8, bias:8, relu, dense:8:8:bin, relu, dense:8:2:bin, bias:2"]
ADAM = ["base_optimizer.kind = adam", "base_optimizer.lr = 0.01"]
SGD = ["base_optimizer.kind = sgd", "base_optimizer.lr = 0.05"]
MOMENTUM = SGD + ["base_optimizer.momentum = 0.9"]
CONV = ["epochs = 3", "record_timing = false", "lr_decay.factor = 1.0", "seed = 5",
        "batch_size = 8", "l = 2", "fast_hidden = 6", "token_dim = 4", "state_dim = 3",
        "expand = 1", "dataset.kind = idx", "dataset.images_path = {images}",
        "dataset.labels_path = {labels}",
        "model.layers = conv2d:1:3:3:pad=1, relu, conv2d:3:4:3:pad=1:bin, relu, flatten, "
        "dense:144:2"]
# 10 seeds: each bench_gap.csv row averages more values than numpy's 8 summation lanes
BENCH = ["seed = 5", "beta = 0.5", "bench.dim = 4", "bench.t = 2000", "bench.repeats = 2",
         "bench.seeds = 10"]
WIDE = ["epochs = 3", "record_timing = false", "lr_decay.factor = 1.0", "seed = 5",
        "batch_size = 64", "l = 6", "dataset.kind = spirals", "dataset.n_per_class = 100",
        "model.layers = dense:2:64, bias:64, relu, dense:64:64:bin, relu, dense:64:2, bias:2"]


def _override(lines, *changes):
    """lines with each `key = value` of changes in place of that key's line."""
    keys = {change.split("=")[0].strip() for change in changes}
    return [line for line in lines if line.split("=")[0].strip() not in keys] + list(changes)


# batches of 16 > 10 outputs, so the head's products run transposed, 2048 deep
CONV16 = _override(CONV, "batch_size = 16", "dataset.images_path = {images16}",
                   "model.layers = conv2d:1:8:3:pad=1, relu, conv2d:8:8:3:pad=1:bin, relu, "
                   "flatten, dense:2048:10")
# one output channel whose 2-bit weights are in part +-1 (see above)
CONV_ONE_CHANNEL = _override(CONV, "model.layers = conv2d:1:3:3:pad=1, relu, "
                             "conv2d:3:1:3:pad=1:bin, relu, flatten, dense:36:2")
# 6x6 images to 3x3 outputs
CONV_STRIDE_2 = _override(CONV, "model.layers = conv2d:1:3:3:pad=1, relu, "
                          "conv2d:3:4:3:stride=2:pad=1:bin, relu, flatten, dense:36:2")

CONFIGS = {
    "fsg-adam": SMALL + ADAM + ["dataset.test_per_class = 8"],
    "fsg-sgd": SMALL + SGD,
    "fsg-sgd-momentum": SMALL + MOMENTUM,
    "fsg-beta-1": SMALL + ADAM + ["beta = 1.0"],
    "fsg-fast-identity": SMALL + ADAM + ["fast_kind = identity"],
    "fsg-fast-off": SMALL + ADAM + ["fast_kind = off"],
    "fsg-slow-lstm": SMALL + ADAM + ["slow_kind = lstm", "hyper_lr = 0.1"],
    "fsg-slow-off": SMALL + ADAM + ["slow_kind = off"],
    "fsg-composed": SMALL + ADAM + ["history_source = composed", "hyper_lr = 0.1"],
    "fsg-bit-width-2": SMALL + ADAM + ["bit_width = 2"],
    "fsg-blobs-3": _override(SMALL, "dataset.kind = blobs", "dataset.classes = 3",
                             "dataset.test_per_class = 8",
                             "model.layers = dense:2:8, bias:8, relu, dense:8:8:bin, relu, "
                             "dense:8:3:bin, bias:3") + ADAM,
    "ste-adam": SMALL + ADAM + ["method = ste"],
    "ste-sgd-momentum": SMALL + MOMENTUM + ["method = ste"],
    "fsg-conv-adam": CONV + ADAM,
    "fsg-conv-sgd": CONV + SGD,
    "ste-conv": CONV + ADAM + ["method = ste"],
    "fsg-conv-bit-width-2": CONV_ONE_CHANNEL + ADAM + ["bit_width = 2"],
    "fsg-conv-stride-2": CONV_STRIDE_2 + ADAM,
    "wide-adam": WIDE + ["base_optimizer.kind = adam", "base_optimizer.lr = 0.001"],
    "wide-sgd": WIDE + SGD,
    "wide-full-batch": _override(WIDE, "batch_size = 400", "dataset.n_per_class = 200") + ADAM,
    "conv-head-2048": CONV16 + ADAM,
    "bench-convergence": BENCH,
    # criterion 8's and the default dimension: each gap sums 10 > 8 squares
    "bench-convergence-dim-10": _override(BENCH, "bench.dim = 10"),
}
# the files (or parameter sets) each command's digests cover; a config whose name starts
# with a command other than train runs that command
DIGESTS = {"train": ("metrics.csv", "model", "bundle"),
           "bench-convergence": ("bench_gap.csv", "bench_summary.json")}

# runs in the tree under test: `fsglab <command>`, keeping the trainer a train run builds
CHILD = """
import hashlib, sys
import numpy as np
from fsglab import cli
command, cfg, out = sys.argv[1:]
built = []
build = cli.build_trainer
cli.build_trainer = lambda cfg: built.append(build(cfg)) or built[-1]
if cli.main([command, cfg, "--out", out]) != 0:
    sys.exit(1)

def digest(named):
    h = hashlib.sha256()
    for name, arr in named:
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()

def file_digest(name):
    with open(out + "/" + name, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()

if command == "bench-convergence":
    print(file_digest("bench_gap.csv"), file_digest("bench_summary.json"))
else:
    trainer = built[0]
    bundle = getattr(trainer, "bundle", None)
    np.savez(out + "/model.npz", **dict(trainer.model.named_params()))
    if bundle:
        np.savez(out + "/bundle.npz", **dict(bundle.named_params()))
    print(file_digest("metrics.csv"), digest(trainer.model.named_params()),
          digest(bundle.named_params()) if bundle else "-")
"""


def _write_idx(images_path: Path, size: int) -> None:
    """24 deterministic size x size uint8 images in the IDX layout."""
    pixels = (np.arange(24 * size * size).reshape(24, size, size) * 37 % 251).astype(np.uint8)
    images_path.write_bytes(struct.pack(">IIII", 0x803, 24, size, size) + pixels.tobytes())


def _write_labels(labels_path: Path) -> None:
    """24 alternating labels in the IDX layout."""
    labels = (np.arange(24) % 2).astype(np.uint8)
    labels_path.write_bytes(struct.pack(">II", 0x801, 24) + labels.tobytes())


def _src_dir(tree: str) -> Path:
    path = Path(tree).resolve()
    return path / "src" if (path / "src" / "fsglab").is_dir() else path


def _run(src: Path, command: str, cfg_path: Path, out: Path) -> tuple:
    """The digests (`DIGESTS[command]`) of one `fsglab <command>` run in tree src."""
    env = {k: v for k, v in os.environ.items() if k != "FSGLAB_OUTPUT_ROOT"}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run([sys.executable, "-c", CHILD, command, str(cfg_path), str(out)],
                          env=env, capture_output=True, text=True, cwd=out.parent)
    if done.returncode != 0:
        failed = "failed: " + (done.stderr.strip().splitlines() or ["?"])[-1]
        return (failed,) + ("-",) * (len(DIGESTS[command]) - 1)
    return tuple(done.stdout.splitlines()[-1].split())  # after the command's own output


def _array_diffs(run_a: Path, run_b: Path, what: str) -> list:
    """A line per array of `what` (model or bundle) whose bytes differ between two train runs."""
    lines = []
    with np.load(run_a / f"{what}.npz") as a, np.load(run_b / f"{what}.npz") as b:
        for name in dict.fromkeys(a.files + b.files):
            if name not in a.files or name not in b.files:
                lines.append(f"{name}: only in {'a' if name in a.files else 'b'}")
                continue
            x, y = a[name], b[name]
            if x.shape != y.shape:
                lines.append(f"{name}: shape {x.shape} vs {y.shape}")
            elif x.tobytes() != y.tobytes():
                scale = np.abs(x).max()
                rel = np.abs(x - y).max() / scale if scale else np.inf
                lines.append(f"{name}: max |a - b| / max |a| = {rel:.1e}")
    return [f"    {what} {line}" for line in lines]


def _loss_diffs(run_a: Path, run_b: Path) -> list:
    """Lines on how far the losses of two train runs' metrics.csv rows are apart."""
    rows = []
    for run in (run_a, run_b):
        with open(run / "metrics.csv", encoding="utf-8", newline="") as fh:
            rows.append([(row["split"], float(row["loss"])) for row in csv.DictReader(fh)])
    final = [[loss for split, loss in run if split == "train"][-1] for run in rows]
    rel = [abs(a - b) / abs(a) if a else (np.inf if b else 0.0)
           for (_, a), (_, b) in zip(*rows)]
    lines = [f"final train loss a {final[0]!r}  b {final[1]!r}"]
    if len(rows[0]) != len(rows[1]):
        lines.append(f"rows {len(rows[0])} vs {len(rows[1])}")
    lines.append(f"max |loss a - loss b| / |loss a| = {max(rel, default=0.0):.1e}")
    return [f"    metrics.csv {line}" for line in lines]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--configs", default=",".join(CONFIGS),
                        help="comma-separated subset of: " + ", ".join(CONFIGS))
    args = parser.parse_args(argv)
    names = [n for n in args.configs.split(",") if n]
    unknown = [n for n in names if n not in CONFIGS]
    if unknown:
        parser.error(f"unknown configs: {', '.join(unknown)}")
    trees = {"a": _src_dir(args.src_a), "b": _src_dir(args.src_b)}
    differ = 0
    with tempfile.TemporaryDirectory(prefix="bitcheck-") as tmp:
        tmp = Path(tmp)
        paths = {"images": tmp / "img.idx", "images16": tmp / "img16.idx",
                 "labels": tmp / "lab.idx"}
        _write_idx(paths["images"], 6)
        _write_idx(paths["images16"], 16)
        _write_labels(paths["labels"])
        for name in names:
            cfg_path = tmp / f"{name}.cfg"
            cfg_path.write_text("\n".join(CONFIGS[name]).format(**paths) + "\n")
            command = next((c for c in DIGESTS if name.startswith(c)), "train")
            runs = {label: tmp / f"{name}-{label}" for label in trees}
            got = {label: _run(src, command, cfg_path, runs[label])
                   for label, src in trees.items()}
            failed = any(digests[0].startswith("failed") for digests in got.values())
            same = got["a"] == got["b"] and not failed
            differ += not same
            print(f"{name}: {'same' if same else 'DIFFERENT'}")
            for label, digests in got.items():
                print(f"  {label} " + "  ".join(
                    f"{what} {digest}" for what, digest in zip(DIGESTS[command], digests)))
            if command == "train" and not failed:
                if got["a"][0] != got["b"][0]:
                    print("\n".join(_loss_diffs(runs["a"], runs["b"])))
                for i in (1, 2):  # the model and bundle digests
                    if got["a"][i] != got["b"][i]:
                        print("\n".join(_array_diffs(runs["a"], runs["b"], DIGESTS["train"][i])))
    print(f"{len(names) - differ} of {len(names)} configs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
