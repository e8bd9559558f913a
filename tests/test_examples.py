"""Smoke test: each example script runs to completion.

Every example runs as its own process in a fresh working directory (some
write a ``*_trace.json`` next to themselves) and must exit 0. The
quickstart, streaming and race-demo examples run in CI jobs of their
own. ``reproduce_paper.py`` evaluates the model at 16 K ranks (~20 s),
which tier-1 already does once in ``tests/bench/test_figures.py``; it
runs in the ``bench`` job.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXAMPLES = [
    "chaos_run",
    "profiling_breakdown",
    "checkpoint_restart",
    "fan_out_checkpoint",
    "transport_comparison",
    "cosmology_pipeline",
]


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_exits_zero(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
