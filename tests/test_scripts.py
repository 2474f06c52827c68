"""The scripts under scripts/ run from any working directory."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_sphere_tables_runs_outside_the_repo(tmp_path):
    # without PYTHONPATH the script has to find src/ from its own location
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "sphere_tables.py"), "--max-path", "3", "--max-spine", "3"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "S^3" in proc.stdout
