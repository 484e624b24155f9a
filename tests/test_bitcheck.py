"""`tools/bitcheck.py` with this tree on both sides, on two of its configs."""

import importlib.util
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


def test_a_tree_that_cannot_train_differs(tmp_path, capsys):
    assert load_bitcheck().main([str(ROOT), str(tmp_path), "--configs", "ste-adam"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "ste-adam: DIFFERENT" and out[2].startswith("  b metrics.csv failed: ")
