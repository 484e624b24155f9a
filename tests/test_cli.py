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
        # the rerun starts from the run's own saved config
        assert main(["train", str(out1 / "config.txt"), "--out", str(out2)]) == 0
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


def _row(error_id, lines, code, prefix, command="train", raised=None, mid_run=False):
    """One table row; `lines` None runs the command on a missing input file (else they
    are the text of the config, or of the CSV for dump-curve), `raised` = (cli
    binding, error) stubs in an error the command cannot be driven to by its
    config, and `mid_run` marks an error raised after the out directory exists."""
    return pytest.param(command, lines, code, prefix, raised, mid_run, id=error_id)


WEIGHT_OVERFLOW = ["method = ste", "base_optimizer.kind = sgd", "base_optimizer.lr = 1e308",
                   "lr_decay.factor = 1.0", "dataset.kind = blobs", "dataset.n_per_class = 40",
                   "batch_size = 16", "seed = 1",
                   "model.layers = dense:2:8:bin, dense:8:2:bin"]
DIVERGING_BENCH = ["bench.c = 1000000.0", "bench.t = 2000", "bench.seeds = 1",
                   "bench.repeats = 1"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command,lines,code,prefix,raised,mid_run", [
    _row("ConfigError", ["l = 0"], 2, "config error: field 'l'"),
    _row("ConfigError-sweep-beta", [], 2,
         "config error: bad value in sweep spec 'beta=abc'", "ablate --sweep beta=abc"),
    _row("ConfigError-sweep-range", [], 2,
         "config error: bad value in sweep spec 'l=1..x'", "ablate --sweep l=1..x"),
    _row("ConfigError-sweep-list", [], 2,
         "config error: bad value in sweep spec 'l=3,q'", "ablate --sweep l=3,q"),
    _row("ConfigError-sweep-empty-range", [], 2,
         "config error: sweep spec 'l=5..2' has no values", "ablate --sweep l=5..2"),
    _row("ConfigError-sweep-empty-beta", [], 2,
         "config error: sweep spec 'beta=' has no values", "ablate --sweep beta="),
    _row("ConfigError-sweep-empty-l", [], 2,
         "config error: sweep spec 'l=' has no values", "ablate --sweep l="),
    _row("ContractError", ["model.layers = dense:3"], 2, "error: dense needs IN:OUT"),
    _row("ContractError-ablate", ["model.layers = dense:3"], 2, "error: dense needs IN:OUT",
         "ablate --sweep beta=0.1"),
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
    _row("ConfigError-classes-zero", ["dataset.kind = blobs", "dataset.classes = 0"], 2,
         "config error: field 'dataset.classes': dataset.classes must be >= 1, got 0"),
    _row("DimensionError-labels", ["dataset.kind = blobs", "dataset.classes = 3"], 2,
         "error: label 2 is not below the model's output width 2"),
    _row("DimensionError-labels-ablate", ["dataset.kind = blobs", "dataset.classes = 3"], 2,
         "error: label 2 is not below the model's output width 2", "ablate --sweep beta=0.1"),
    _row("EmptyHistoryError", [], 2, "error: layer 3: history is empty",
         raised=("run_train", EmptyHistoryError("layer 3: history is empty")), mid_run=True),
    _row("FitError", ["bench.t = 400"], 2, "error: nonpositive gap at window index 0",
         "bench-convergence",
         raised=("rate_fit", FitError(0, "nonpositive gap at window index 0")), mid_run=True),
    _row("FormatError", [IDX_DATA[0], IDX_DATA[1], "dataset.labels_path = {images}"], 3,
         "error: {images}: bad label magic"),
    _row("FormatError-curve-fields", [METRICS_HEADER, "1,5,train,0.5"], 3,
         "error: {config}: line 2: not enough values to unpack", "dump-curve"),
    _row("FormatError-curve-float", [METRICS_HEADER, "1,5,train,abc,0.5,0.001,0"], 3,
         "error: {config}: line 2: could not convert string to float: 'abc'", "dump-curve"),
    _row("DivergenceError", ["method = ste", "epochs = 50", "base_optimizer.kind = sgd",
                             "base_optimizer.lr = 1e300", "model.layers = dense:2:8, dense:8:2"],
         4, "error: non-finite loss at iteration ", mid_run=True),
    _row("DivergenceError-weights", WEIGHT_OVERFLOW, 4,
         "error: non-finite weights W of layer 0 at iteration 2", mid_run=True),
    _row("DivergenceError-bench", DIVERGING_BENCH, 4,
         "error: bench seed 0: every repeat diverged, the first at iteration ",
         "bench-convergence", mid_run=True),
    _row("ConfigError-bench-beta", ["beta = 1.0"], 2,
         "config error: field 'beta': the bench needs beta < 1, got 1.0", "bench-convergence"),
    _row("ConfigError-bench-c", ["bench.c = -1.0"], 2,
         "config error: field 'bench.c': C must be positive, got -1.0", "bench-convergence"),
    _row("ConfigError-bench-t", ["bench.t = 50"], 2,
         "config error: field 'bench.t': the rate fit starts at t = 100, got 50",
         "bench-convergence"),
    _row("ConfigError-beta2", ["base_optimizer.beta2 = 1.0"], 2,
         "config error: field 'base_optimizer.beta2': beta2 must be in [0, 1), got 1.0"),
    _row("ConfigError-decay-factor", ["lr_decay.factor = -2"], 2,
         "config error: field 'lr_decay.factor': factor must be > 0, got -2.0"),
    _row("ConfigError-hyper-lr", ["hyper_lr = -1"], 2,
         "config error: field 'hyper_lr': hyper_lr must be > 0, got -1.0"),
    _row("ConfigError-hyper-lr-zero", ["hyper_lr = 0"], 2,
         "config error: field 'hyper_lr': hyper_lr must be > 0, got 0.0", "ablate --sweep l=2"),
    _row("ConfigError-eps", ["base_optimizer.eps = 0"], 2,
         "config error: field 'base_optimizer.eps': eps must be > 0, got 0.0"),
    _row("EvaluationError", [], 4, "error: f non-finite at perturbed coordinate 0",
         raised=("run_train", EvaluationError("f non-finite at perturbed coordinate 0")),
         mid_run=True),
    _row("OSError-config", None, 2, "error: [Errno 2] No such file or directory: '{missing}'"),
    _row("OSError-config-ablate", None, 2,
         "error: [Errno 2] No such file or directory: '{missing}'", "ablate --sweep beta=0.1"),
    _row("OSError-idx", ["dataset.kind = idx", "dataset.images_path = {missing}",
                         "dataset.labels_path = {labels}"], 2,
         "error: [Errno 2] No such file or directory: '{missing}'"),
    _row("OSError-idx-ablate", ["dataset.kind = idx", "dataset.images_path = {missing}",
                                "dataset.labels_path = {labels}"], 2,
         "error: [Errno 2] No such file or directory: '{missing}'", "ablate --sweep beta=0.1"),
    _row("OSError-curve", None, 2, "error: [Errno 2] No such file or directory: '{missing}'",
         "dump-curve"),
])
def test_error_class_exit_code_and_one_line(tmp_path, capsys, monkeypatch, command, lines,
                                            code, prefix, raised, mid_run):
    paths = {"images": tmp_path / "img.idx", "labels": tmp_path / "lab.idx",
             "missing": tmp_path / "missing", "config": tmp_path / "run.cfg"}
    write_idx(paths["images"], paths["labels"], np.zeros((4, 3, 3), dtype=np.uint8),
              np.arange(4) % 2)
    if lines is None:  # the command's input file does not exist
        cfg = paths["missing"]
    else:
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
    # an input error is raised before anything is written
    assert (tmp_path / "out").exists() == mid_run


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

    def test_gap_rows_average_the_seeds_in_order(self, tmp_path, monkeypatch):
        """Each bench_gap.csv row is np.mean of that row's per-seed values in seed order;
        10 seeds are more than numpy's 8 summation lanes, so the order shows."""
        traces = []
        run = cli.run_fsg_convex
        monkeypatch.setattr(cli, "run_fsg_convex",
                            lambda *a, **kw: traces.append(run(*a, **kw)) or traces[-1])
        cfg = write_cfg(tmp_path, "bench.t = 200\nbench.seeds = 10\nbench.repeats = 2\n"
                                  "bench.dim = 2\nbeta = 0.5")
        assert main(["bench-convergence", str(cfg), "--out", str(tmp_path / "b")]) == 0
        expect = ["t,mean_gap,stderr"] + [
            f"{int(t)},{np.mean([tr.gaps[k] for tr in traces])!r},"
            f"{np.mean([tr.gap_stderr[k] for tr in traces])!r}"
            for k, t in enumerate(traces[0].ts)]
        assert (tmp_path / "b" / "bench_gap.csv").read_text().splitlines() == expect

    def test_nan_residual_reaches_the_summary(self, tmp_path, monkeypatch, capsys):
        """A NaN residual after a finite one is the max; Python's `max` dropped it."""
        residuals = iter([1e-16, float("nan")])
        monkeypatch.setattr(cli, "pk_recursion_check", lambda trace, beta: next(residuals))
        cfg = write_cfg(tmp_path, "bench.t = 200\nbench.seeds = 2\nbench.repeats = 1\n"
                                  "bench.dim = 2\nbeta = 0.5")
        assert main(["bench-convergence", str(cfg), "--out", str(tmp_path / "b")]) == 0
        summary = json.loads((tmp_path / "b" / "bench_summary.json").read_text())
        assert np.isnan(summary["max_pk_residual"])
        assert np.isnan(json.loads(capsys.readouterr().out)["max_pk_residual"])


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


def _nan_w_head(grads):
    grads["w_head"][0, 0] = np.nan


def _nan_fast_m2(grads):
    grads["fast.m2"][1, 0] = np.nan


def _nan_entry(out):
    out[2] = np.nan


def _nan_phi_g(trace):
    trace.phi_g[0][5, 0] = np.nan


@pytest.mark.parametrize("check,target,poison", [
    (checks.criterion_1_gradients, "slow_backward", _nan_w_head),
    (checks.criterion_1_gradients, "fast_backward", _nan_fast_m2),
    (checks.criterion_2_ssm_duality, "ssm_conv", _nan_entry),
    (checks.criterion_3_momentum_identity, "momentum_expand", _nan_entry),
    (checks.criterion_9_pk_recursion, "run_fsg_convex", _nan_phi_g),
], ids=["1-slow", "1-fast", "2", "3", "9"])
def test_nan_error_fails_its_check(monkeypatch, check, target, poison):
    """A NaN in one result makes the check report FAIL; `max` used to drop it."""
    original = getattr(checks, target)

    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        poison(out)
        return out

    monkeypatch.setattr(checks, target, poisoned)
    monkeypatch.setattr(checks, "CHECKS", [check])
    lines = []
    ok = checks.run_all(lines.append)
    assert ok is False and lines[0].startswith(
        f"ACCEPTANCE {checks.criterion_number(check)}: FAIL"), lines
