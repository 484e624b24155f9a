"""perfbench's self-check as part of the suite.

perfbench (under perfbench/, outside this suite's test paths) patches and
reads bindings of the package by name.  Running its self-check here makes a
refactor that drops one of them fail the suite, not only the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_check_passes():
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
