import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_harness_selftest_passes():
    # the harness wraps program functions by name (quantize,
    # QuantizedCircuit.eigenvalues, ...); its self-tests fail when one moves
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
