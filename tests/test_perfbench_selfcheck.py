"""The benchmark's own checks, run as part of the test suite.

perfbench/selfcheck.py holds the tracer to the program: every public
function is wrapped and restored, names imported across modules (such as
frequency.cell_positions) are traced too, and the per-layer metrics match
BENCHMARK.json.  A program change that breaks that contract fails here.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_selfcheck_passes():
    done = subprocess.run([sys.executable, "selfcheck.py"], cwd=PERFBENCH, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_traced_span_names_are_program_functions():
    """Every hooked span and per-op prune span names a nestrec function.

    A renamed or removed function would leave its span, and metrics such as
    pruning.prune_s.order2, silently reading 0.
    """
    found = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(found)
    found.loader.exec_module(tracing)
    names = [*tracing.HOOKS, *tracing.PRUNE_OPS.values()]
    assert names
    for name in names:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"nestrec.{module}"), attr, None)
        assert inspect.isfunction(fn) and tracing.span_name(fn) == name, name
