"""Smoke test of the narrative demos and of README's quick start: each must
run to completion.

``demos/snr_sweep.py`` is left out: its mini Monte Carlo sweep takes close
to a minute, and the harness tests cover the same path.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nomavq import SolverConfig

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "solve_single_instance.py",
    "grouping_comparison.py",
    "packetization_walkthrough.py",
])
def test_demo_runs(demo):
    _run([str(ROOT / "demos" / demo)])


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    quick_start = readme[readme.index("## Quick start"):]
    code = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    # it prints the power vector, the average PSNR and the certified gap
    avg_psnr_db, gap_db = map(float, _run(["-c", code]).stdout.split()[-2:])
    assert 0.0 <= gap_db <= SolverConfig.gap_tol_db < avg_psnr_db


def _run(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done
