"""The daemon's import footprint: serving loads no benchmark code."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_importing_the_daemon_loads_no_benchmark_module():
    # a fresh interpreter: this test process has long since imported
    # repro.bench through other tests
    probe = (
        "import sys, repro.serve; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.bench')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
