"""Every demo script runs to completion with warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_runs(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(script)], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
