"""Record expected.json: exit code and output sha256 of every grid point.

    python3 perfbench/record.py

Runs every job of every workload's parameter grid once, untraced, and writes
perfbench/expected.json. A recording is refused when a job's exit code
differs from the documented one, when a closed-form check fails, or when the
two jobs of a --cache-dir pair disagree. Re-record only when an intended
change of the program's output has been reviewed: run.py counts every job
whose output differs from this file as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import workloads
from run import HERE, ROOT, Runner


def main() -> int:
    tmp = ROOT / ".perfbench_tmp" / f"record-{os.getpid()}"
    (tmp / "inputs").mkdir(parents=True)
    table: dict[str, list] = {}
    runner = Runner(tmp, table)
    try:
        units = [[workloads.PROBE]]
        for name in workloads.WORKLOADS:
            (tmp / "inputs" / name).mkdir()
            units += workloads.grid_jobs(name, tmp / "inputs" / name, runner.pass_dir)
        for unit in units:
            shutil.rmtree(runner.pass_dir, ignore_errors=True)
            runner.pass_dir.mkdir()
            for job in unit:
                out, err = runner.pass_dir / "out", runner.pass_dir / "err"
                sample = runner.spawn(job, out, err, None)
                data, _ = runner.output(job, sample, out)
                table.setdefault(job.key, [sample.exit, hashlib.sha256(data).hexdigest()])
                runner.check(job, sample, out, err)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    if runner.failed:
        print("\n".join(runner.failures), file=sys.stderr)
        return 1
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                    for k, v in sorted(table.items())) + "\n}\n")
    print(f"recorded {len(table)} jobs from {runner.attempted} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
