"""Runs the benchmark harness self-test, which also checks that the
tracer's rebinding of ``seshadri.certify`` and ``seshadri.oracle``
attributes still matches the names the pipeline looks up."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
