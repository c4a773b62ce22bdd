"""The benchmark's own checks, run as a test: `bench/selfcheck.py` (its
deep-copy probe reads matrix entries, so it follows their representation)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    done = subprocess.run([sys.executable, "bench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
