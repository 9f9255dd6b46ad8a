"""The benchmark harness checks itself; its self-test must pass against
the library as it stands, since the workloads import the cone API."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest():
    proc = subprocess.run([sys.executable, "benchmarks/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
