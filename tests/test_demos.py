"""Each demo script runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def test_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = [str(tmp_path)] if script.name.startswith("04_") else []
    proc = subprocess.run(
        [sys.executable, str(script), *args], env=env, cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
