"""The benchmark harness's own self-test, run as part of the test suite.

`perfbench/selftest.py` runs every workload at tiny sizes, traced and
untraced, and checks the printed metrics and the report gate.  A library
change that breaks the benchmark fails here instead of at benchmark time.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    run = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert "selftest passed" in run.stdout
