"""The benchmark's self-test as a package test: a change that renames or
drops a function, option or per-layer metric the benchmark pins fails here
instead of in a benchmark run.  Takes about ten seconds."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    p = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                       capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stdout[-3000:] + p.stderr[-3000:]
