"""Smoke test: the demos run to completion.  Demo 07 (coalescence and
density curves) is left out: it takes about 13 s."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "01_rates_and_constants.py",
        "02_event_stream_trajectories.py",
        "03_maximal_coupling_rates.py",
        "04_interval_functionals.py",
        "05_exact_oracle.py",
        "06_stationary_counterexamples.py",
        "08_stationary_inequalities.py",
    ],
)
def test_demo_exits_cleanly(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
