"""The benchmark's own checks, run as part of the test suite.

perfbench/selfcheck.py holds the tracer to the program: every public
function is wrapped and restored, names imported across modules (such as
frequency.cell_positions) are traced too, and the per-layer metrics match
BENCHMARK.json.  A program change that breaks that contract fails here.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_selfcheck_passes():
    done = subprocess.run([sys.executable, "selfcheck.py"], cwd=PERFBENCH, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
