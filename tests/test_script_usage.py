"""The comparison and timing scripts under tests/ print their usage."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["outcomes", "ab_timing"])
def test_usage_without_arguments(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert f"python tests/{name}.py" in proc.stderr
