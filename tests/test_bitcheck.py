"""`tools/bitcheck.py` with this tree on both sides, on two of its configs."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_bitcheck():
    spec = importlib.util.spec_from_file_location("bitcheck", ROOT / "tools" / "bitcheck.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_tree_is_identical(capsys):
    bitcheck = load_bitcheck()
    assert bitcheck.main([str(ROOT), str(ROOT / "src"), "--configs", "fsg-adam,fsg-conv-sgd"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "fsg-adam: same" and out[3] == "fsg-conv-sgd: same"
    assert out[1].split()[1:] == out[2].split()[1:]  # a and b print the same digests
    assert out[1].split()[-2] == "bundle" and out[1].split()[-1] != "-"  # an FSG run
    assert out[-1] == "2 of 2 configs identical"


def test_bench_entry_compares_its_two_output_files(capsys):
    names = ["bench-convergence", "bench-convergence-dim-10"]
    assert load_bitcheck().main([str(ROOT), str(ROOT), "--configs", ",".join(names)]) == 0
    out = capsys.readouterr().out.splitlines()
    for name, lines in zip(names, (out[0:3], out[3:6])):
        assert lines[0] == f"{name}: same" and lines[1].split()[1:] == lines[2].split()[1:]
        assert lines[1].split()[1::2] == ["bench_gap.csv", "bench_summary.json"]
    assert out[1] != out[4]  # the two dims write different curves


def test_a_tree_that_cannot_train_differs(tmp_path, capsys):
    assert load_bitcheck().main([str(ROOT), str(tmp_path), "--configs", "ste-adam"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "ste-adam: DIFFERENT" and out[2].startswith("  b metrics.csv failed: ")


def test_a_changed_kernel_names_its_differing_arrays(tmp_path, capsys):
    # a shorter default chunk sums the slow net's scans in another order: the hyper-gradients
    # move by rounding, the bundle digest differs and the model's and metrics' do not
    shutil.copytree(ROOT / "src" / "fsglab", tmp_path / "fsglab")
    kernel = tmp_path / "fsglab" / "hypernet.py"
    text = kernel.read_text()
    assert "\nSCAN_CHUNK = 128 " in text
    kernel.write_text(text.replace("\nSCAN_CHUNK = 128 ", "\nSCAN_CHUNK = 5 "))
    assert load_bitcheck().main([str(ROOT), str(tmp_path), "--configs", "fsg-adam"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "fsg-adam: DIFFERENT"
    a, b = (line.split()[1:] for line in out[1:3])
    assert a[:4] == b[:4] and a[5] != b[5]  # metrics.csv and model are the same, bundle not
    diffs = out[3:-1]
    assert diffs and all(line.startswith("    bundle ") for line in diffs)
    for line in diffs:
        assert 0.0 < float(line.split(" = ")[1]) < 1e-12, line
    assert out[-1] == "0 of 1 configs identical"
