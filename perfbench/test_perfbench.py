"""Schema self-check of the benchmark on tiny sizes of every workload.

    python3 -m pytest perfbench -q

It checks that each workload reports every metric BENCHMARK.json names,
with its unit and a sample count, and that its output checks pass.  It
asserts nothing about speed.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math

import pytest

import run

run.bootstrap()

import workloads as wl  # noqa: E402  (needs the bootstrap's import path)

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(spec: wl.Workload) -> wl.Workload:
    convex = dataclasses.replace(spec.convex, dim=4, components=16, T=200, repeats=2)
    if spec.data == "idx":
        sizes = dict(layers=("conv2d:1:2:3:pad=1", "bias:2", "relu",
                             "conv2d:2:2:3:pad=1:bin", "bias:2", "relu", "flatten",
                             "dense:32:10", "bias:10"),
                     image_size=4, n_train=32, n_test=16, batch_size=16)
    else:
        sizes = dict(layers=("dense:2:4", "bias:4", "tanh", "dense:4:4:bin", "tanh",
                             "dense:4:2", "bias:2"),
                     n_train=16, n_test=8, batch_size=8)
    return dataclasses.replace(spec, fast_hidden=4, token_dim=3, state_dim=2, expand=1,
                               l=2, tail_pct=50, convex=convex, **sizes)


def test_benchmark_json_matches_the_code():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == wl.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == wl.tracing.PER_LAYER
    assert [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"][0]["bound"] == max(
        m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    measured, metrics, tally = wl.run_untraced(tiny(wl.WORKLOADS[name]), 3, 0.2, tmp_path)
    assert tally.failed == 0, tally.failures
    assert tally.attempted > 0
    assert set(wl.END_TO_END) <= set(metrics)
    for key, m in metrics.items():
        assert m.unit == wl.END_TO_END.get(key, m.unit) and m.unit
        assert m.samples >= 1
        assert math.isfinite(m.value) and m.value > 0, key
    assert len(measured.setup_s) == wl.SETUP_REPEATS
    assert measured.working_set_bytes > 0


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    base, traced, tr, layers, tally = wl.run_traced(tiny(wl.WORKLOADS[name]), 3, 0.2, tmp_path)
    # includes the check that tracing left parameters and losses unchanged
    assert tally.failed == 0, tally.failures
    assert set(layers) == set(wl.tracing.PER_LAYER)
    assert all(math.isfinite(v) for v in layers.values())
    assert layers["hypernet.slow.tokens"] > 0
    assert layers["tensor.matmul.flops"] > 0
    assert (layers["tensor.conv2d.flops"] > 0) == (wl.WORKLOADS[name].data == "idx")
    assert (layers["data.idx_bytes"] > 0) == (wl.WORKLOADS[name].data == "idx")
    assert layers["convergence.iterations"] == 400
    assert 0.0 < layers["trace.coverage"] <= 1.0
    trainer = importlib.import_module("fsglab.trainer")
    assert not hasattr(trainer.slow_forward_cached, "__wrapped__")  # wrappers removed
