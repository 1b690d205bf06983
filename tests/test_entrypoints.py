"""Import smoke test for the job and benchmark entrypoints.

Each script is executed under a run name other than ``__main__``, so it
only runs its imports and definitions: an entrypoint that still imports
a deleted module or name fails here.
"""
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("jobs/*.py")) + sorted(ROOT.glob("benchmarks/bench_*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_entrypoint_imports(path):
    saved = list(sys.path)
    try:
        runpy.run_path(str(path), run_name="smoke")
    finally:
        sys.path[:] = saved
