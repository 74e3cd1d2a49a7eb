"""Smoke test of the narrative demos: each must run to completion.

``demos/snr_sweep.py`` is left out: its mini Monte Carlo sweep takes close
to a minute, and the harness tests cover the same path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "solve_single_instance.py",
    "grouping_comparison.py",
    "packetization_walkthrough.py",
])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
