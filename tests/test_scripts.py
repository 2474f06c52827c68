"""The scripts under scripts/ run from any working directory."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_outside(script, tmp_path, *argv):
    # without PYTHONPATH the script has to find src/ from its own location
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_sphere_tables_runs_outside_the_repo(tmp_path):
    proc = _run_outside("sphere_tables.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    # sha256 of the default tables as first recorded
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "c059c50296615ef14f99a2b9c13df1c8f08ed2b85ae3ac6f8453ace32633172a"


def test_reproduce_results_passes_outside_the_repo(tmp_path):
    # the sphere counts of the symbolic engine against the Hochster oracle,
    # and the decomposition series against the Koszul oracle
    proc = _run_outside("reproduce_results.py", tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and not any(line.startswith("FAIL") for line in lines)
    assert any(line.startswith("ok   porter-hochster") for line in lines)


def test_child_cpu_reports_one_median_per_command_and_tree(tmp_path):
    repo = str(SCRIPTS.parent)
    proc = _run_outside("child_cpu.py", tmp_path, "--runs", "1", repo, repo, "build points 1")
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split("\t") == ["command", repo, repo, "change"]
    name, a, b, _ = row.split("\t")
    assert name == "build points 1" and a.endswith(" ms") and float(b[:-3]) > 0
