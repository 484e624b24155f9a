import json

import numpy as np
import pytest

from fsglab import checks, cli
from fsglab.cli import main
from fsglab.data import write_idx
from fsglab.errors import EmptyHistoryError, EvaluationError, FitError
from fsglab.metrics import METRICS_HEADER, MetricsWriter, dump_curve, read_metrics
from fsglab.trainer import MetricsRecord

TINY_TRAIN = "\n".join([
    "method = fsg",
    "epochs = 2",
    "batch_size = 8",
    "l = 2",
    "seed = 3",
    "fast_hidden = 6",
    "token_dim = 3",
    "state_dim = 2",
    "expand = 1",
    "dataset.kind = blobs",
    "dataset.n_per_class = 8",
    "dataset.noise = 0.3",
    "model.layers = dense:2:4, bias:4, relu, dense:4:2:bin, bias:2",
    "lr_decay.factor = 1.0",
])


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text + "\n")
    return path


class TestTrainCommand:
    def test_train_writes_metrics_and_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_TRAIN)
        out = tmp_path / "out"
        assert main(["train", str(cfg), "--out", str(out)]) == 0
        records = read_metrics(out / "metrics.csv")
        assert len(records) == 2
        assert all(r.split == "train" for r in records)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert len(manifest["config_hash"]) == 64
        assert (out / "config.txt").exists()

    def test_train_twice_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_TRAIN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", str(cfg), "--out", str(out1)]) == 0
        assert main(["train", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("model", ["dense", "conv"])
    def test_rerun_byte_identical_without_timing(self, tmp_path, model):
        if model == "dense":
            text = TINY_TRAIN.replace("method = fsg", "method = ste")
        else:
            images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
            pixels = (np.arange(8 * 36).reshape(8, 6, 6) * 37 % 251).astype(np.uint8)
            write_idx(images, labels, pixels, np.arange(8) % 2)
            text = "\n".join([
                line for line in TINY_TRAIN.splitlines()
                if not line.startswith(("dataset.", "model."))] + [
                "dataset.kind = idx",
                f"dataset.images_path = {images}", f"dataset.labels_path = {labels}",
                "model.layers = conv2d:1:2:3:pad=1:bin, relu, flatten, dense:72:2"])
        cfg = write_cfg(tmp_path, text + "\nrecord_timing = false")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", str(cfg), "--out", str(out1)]) == 0
        assert main(["train", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_test_split_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_TRAIN + "\ndataset.test_per_class = 4")
        out = tmp_path / "out"
        assert main(["train", str(cfg), "--out", str(out)]) == 0
        splits = [r.split for r in read_metrics(out / "metrics.csv")]
        assert splits == ["train", "test", "train", "test"]

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "l = 0")
        assert main(["train", str(cfg)]) == 2

    def test_truncated_idx_one_line_exit_3(self, tmp_path, capsys):
        images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(images, labels, np.zeros((4, 3, 3), dtype=np.uint8), np.arange(4) % 2)
        images.write_bytes(images.read_bytes()[:-5])
        cfg = write_cfg(tmp_path, "\n".join([
            "method = ste", "dataset.kind = idx",
            f"dataset.images_path = {images}", f"dataset.labels_path = {labels}",
            "model.layers = flatten, dense:9:2"]))
        assert main(["train", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "payload holds 31 bytes" in err
        assert err.count("\n") == 1

    def test_model_not_fitting_data_one_line_exit_2(self, tmp_path, capsys):
        images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(images, labels, np.zeros((4, 3, 3), dtype=np.uint8), np.arange(4) % 2)
        cfg = write_cfg(tmp_path, "\n".join([
            "dataset.kind = idx",
            f"dataset.images_path = {images}", f"dataset.labels_path = {labels}",
            "model.layers = flatten, dense:10:2:bin"]))
        assert main(["train", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "error: layer 1 (dense): matmul shape mismatch: (4, 9) x (10, 2)\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_one_line_exit_4(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "\n".join([
            "method = ste", "epochs = 50", "dataset.kind = blobs",
            "base_optimizer.kind = sgd", "base_optimizer.lr = 1e300",
            "model.layers = dense:2:8, dense:8:2"]))
        assert main(["train", str(cfg), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss at iteration ")
        assert err.count("\n") == 1


IDX_DATA = ["dataset.kind = idx", "dataset.images_path = {images}",
            "dataset.labels_path = {labels}"]


def _row(error_id, lines, code, prefix, command="train", raised=None):
    """One table row; `raised` = (cli binding, error) stubs in an error the
    command cannot be driven to by its config."""
    return pytest.param(command, lines, code, prefix, raised, id=error_id)


WEIGHT_OVERFLOW = ["method = ste", "base_optimizer.kind = sgd", "base_optimizer.lr = 1e308",
                   "lr_decay.factor = 1.0", "dataset.kind = blobs", "dataset.n_per_class = 40",
                   "batch_size = 16", "seed = 1",
                   "model.layers = dense:2:8:bin, dense:8:2:bin"]
DIVERGING_BENCH = ["bench.c = 1000000.0", "bench.t = 2000", "bench.seeds = 1",
                   "bench.repeats = 1"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command,lines,code,prefix,raised", [
    _row("ConfigError", ["l = 0"], 2, "config error: field 'l'"),
    _row("ConfigError-sweep-beta", [], 2,
         "config error: bad value in sweep spec 'beta=abc'", "ablate --sweep beta=abc"),
    _row("ConfigError-sweep-range", [], 2,
         "config error: bad value in sweep spec 'l=1..x'", "ablate --sweep l=1..x"),
    _row("ConfigError-sweep-list", [], 2,
         "config error: bad value in sweep spec 'l=3,q'", "ablate --sweep l=3,q"),
    _row("ContractError", ["model.layers = dense:3"], 2, "error: dense needs IN:OUT"),
    _row("ContractError-negative-size", ["model.layers = dense:2:-3, dense:-3:2"], 2,
         "error: size -3 must be >= 1 in 'dense:2:-3'"),
    _row("ContractError-zero-size", ["model.layers = dense:2:0, dense:0:2"], 2,
         "error: size 0 must be >= 1 in 'dense:2:0'"),
    _row("ContractError-stride", IDX_DATA + ["model.layers = conv2d:1:2:3:stride=q"], 2,
         "error: 'q' is not an integer in 'conv2d:1:2:3:stride=q'"),
    _row("DimensionError", IDX_DATA + ["model.layers = flatten, dense:10:2:bin"], 2,
         "error: layer 1 (dense): matmul shape mismatch"),
    _row("DomainError", IDX_DATA + ["model.layers = conv2d:1:2:3:pad=-1, flatten, dense:18:2"],
         2, "error: pad must be >= 0"),
    _row("EmptyHistoryError", [], 2, "error: layer 3: history is empty",
         raised=("run_train", EmptyHistoryError("layer 3: history is empty"))),
    _row("FitError", ["bench.t = 400"], 2, "error: nonpositive gap at window index 0",
         "bench-convergence",
         raised=("rate_fit", FitError(0, "nonpositive gap at window index 0"))),
    _row("FormatError", [IDX_DATA[0], IDX_DATA[1], "dataset.labels_path = {images}"], 3,
         "error: {images}: bad label magic"),
    _row("DivergenceError", ["method = ste", "epochs = 50", "base_optimizer.kind = sgd",
                             "base_optimizer.lr = 1e300", "model.layers = dense:2:8, dense:8:2"],
         4, "error: non-finite loss at iteration "),
    _row("DivergenceError-weights", WEIGHT_OVERFLOW, 4,
         "error: non-finite weights W of layer 0 at iteration 2"),
    _row("DivergenceError-bench", DIVERGING_BENCH, 4,
         "error: bench seed 0: every repeat diverged, the first at iteration ",
         "bench-convergence"),
    _row("EvaluationError", [], 4, "error: f non-finite at perturbed coordinate 0",
         raised=("run_train", EvaluationError("f non-finite at perturbed coordinate 0"))),
])
def test_error_class_exit_code_and_one_line(tmp_path, capsys, monkeypatch, command, lines,
                                            code, prefix, raised):
    paths = {"images": tmp_path / "img.idx", "labels": tmp_path / "lab.idx"}
    write_idx(paths["images"], paths["labels"], np.zeros((4, 3, 3), dtype=np.uint8),
              np.arange(4) % 2)
    cfg = write_cfg(tmp_path, "\n".join(line.format(**paths) for line in lines))
    if raised is not None:
        binding, error = raised

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, binding, fail)
    name, *options = command.split()
    assert main([name, str(cfg), "--out", str(tmp_path / "out"), *options]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix.format(**paths)) and err.count("\n") == 1


class TestAblateCommand:
    def test_beta_sweep_emits_per_value_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_TRAIN)
        out = tmp_path / "sweep"
        assert main(["ablate", str(cfg), "--sweep", "beta=0.1,0.3",
                     "--out", str(out)]) == 0
        for tag, beta in (("beta_0.1", 0.1), ("beta_0.3", 0.3)):
            sub = out / tag
            assert (sub / "metrics.csv").exists()
            text = (sub / "config.txt").read_text()
            assert f"beta = {beta!r}" in text

    def test_l_range_sweep(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_TRAIN)
        out = tmp_path / "sweep"
        assert main(["ablate", str(cfg), "--sweep", "l=2..3", "--out", str(out)]) == 0
        assert (out / "l_2" / "metrics.csv").exists()
        assert (out / "l_3" / "metrics.csv").exists()

    def test_slow_net_sweep(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_TRAIN)
        out = tmp_path / "sweep"
        assert main(["ablate", str(cfg), "--sweep", "slow=lstm,ssm",
                     "--out", str(out)]) == 0
        assert (out / "slow_lstm" / "metrics.csv").exists()
        assert (out / "slow_selective-ssm" / "metrics.csv").exists()

    def test_unknown_sweep_key(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_TRAIN)
        assert main(["ablate", str(cfg), "--sweep", "gamma=1,2",
                     "--out", str(tmp_path / "x")]) == 2


class TestBenchCommand:
    def test_bench_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, "\n".join([
            "bench.t = 400",
            "bench.seeds = 2",
            "bench.repeats = 1",
            "bench.dim = 3",
            "beta = 0.5",
        ]))
        out = tmp_path / "bench"
        assert main(["bench-convergence", str(cfg), "--out", str(out)]) == 0
        gap_lines = (out / "bench_gap.csv").read_text().splitlines()
        assert gap_lines[0] == "t,mean_gap,stderr"
        assert len(gap_lines) > 5
        summary = json.loads((out / "bench_summary.json").read_text())
        assert len(summary["slopes"]) == 2
        assert summary["max_pk_residual"] < 1e-10


class TestDumpCurve:
    def test_projection(self, tmp_path):
        metrics = tmp_path / "metrics.csv"
        writer = MetricsWriter(metrics)
        writer.write(MetricsRecord(1, 10, "train", 0.5, 0.8, 1e-3, 0))
        writer.write(MetricsRecord(1, 10, "test", 0.6, 0.7, 1e-3, 0))
        out = tmp_path / "curve.csv"
        assert main(["dump-curve", str(metrics), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch,iter,split,loss"
        assert lines[1] == "1,10,train,0.5"
        assert lines[2] == "1,10,test,0.6"

    def test_dump_curve_function(self, tmp_path):
        metrics = tmp_path / "metrics.csv"
        writer = MetricsWriter(metrics)
        writer.write(MetricsRecord(2, 5, "train", 0.25, 0.9, 1e-2, 3))
        out = tmp_path / "c.csv"
        assert dump_curve(metrics, out) == 1


class TestCliBasics:
    def test_unknown_subcommand_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_subcommand_usage(self):
        assert main([]) == 2

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FSGLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = write_cfg(tmp_path, TINY_TRAIN + "\noutput_dir = nested/run")
        assert main(["train", str(cfg)]) == 0
        assert (tmp_path / "nested" / "run" / "metrics.csv").exists()


class TestMetricsIo:
    def test_header_fixed(self, tmp_path):
        path = tmp_path / "m.csv"
        MetricsWriter(path)
        assert path.read_text().splitlines()[0] == METRICS_HEADER

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        writer = MetricsWriter(path)
        rec = MetricsRecord(3, 42, "train", 0.125, 0.875, 0.001, 0)
        writer.write(rec)
        back = read_metrics(path)[0]
        assert back == rec

    def test_record_validation(self):
        with pytest.raises(ValueError):
            MetricsRecord(1, 1, "train", -0.1, 0.5, 1e-3, 0).validate()
        with pytest.raises(ValueError):
            MetricsRecord(1, 1, "train", 0.1, 1.5, 1e-3, 0).validate()


def test_check_subcommand_clean_build_exit_zero():
    assert main(["check"]) == 0


@pytest.mark.parametrize("failure", ["returns_false", "raises"])
def test_check_subcommand_failing_entry_exit_one(monkeypatch, capsys, failure):
    def criterion_11_broken():
        if failure == "raises":
            raise RuntimeError("boom")
        return False, "broken on purpose"

    def criterion_12_fine():
        return True, "still runs"

    monkeypatch.setattr(checks, "CHECKS", [criterion_11_broken, criterion_12_fine])
    assert main(["check"]) == 1
    out = capsys.readouterr().out.splitlines()
    detail = "raised RuntimeError: boom" if failure == "raises" else "broken on purpose"
    assert out == [f"ACCEPTANCE 11: FAIL - {detail}", "ACCEPTANCE 12: PASS - still runs"]
