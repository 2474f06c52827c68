"""Self-test of the benchmark, at tiny size.

    python3 perfbench/selftest.py        (or: python -m pytest perfbench/selftest.py)

Checks that a tiny run of every workload, untraced and traced, passes its
output checks and prints every metric of BENCHMARK.json with its unit, and
that a wrong expected hash makes a run fail instead of pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_metric_with_its_unit():
    for w in BENCH["workloads"]:
        for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            result = run(w["name"], trace)
            assert result["correct"] and result["failed"] == 0, (w["name"], trace, result)
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: v["unit"] for name, v in result["metrics"].items()}
            assert got == want, (w["name"], trace)
            for name, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), name
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values()), result


def test_wrong_expected_hash_fails():
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    expected["build points 1"][1] = "0" * 64
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=ROOT, delete=False) as fh:
        json.dump(expected, fh)
    try:
        result = run("verify-mix", 0, "--expected", fh.name)
    finally:
        Path(fh.name).unlink()
    assert not result["correct"]
    assert result["failed"] > 0 and result["failed"] <= result["attempted"]


if __name__ == "__main__":
    test_every_metric_with_its_unit()
    test_wrong_expected_hash_fails()
    print("perfbench self-test passed")
