"""Smoke test: every demo script runs to completion in a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_exits_zero(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert result.returncode == 0, result.stderr
