"""Every demo script runs to completion without writing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_clean(script):
    src = str(script.parent.parent / "src")
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
