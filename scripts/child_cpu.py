#!/usr/bin/env python3
"""Median child CPU time (user + sys) of CLI commands on two source trees:

    python3 scripts/child_cpu.py [--runs N] TREE_A TREE_B "build points 1" ...

Each command runs as `python3 -m polyloop ARGS` with PYTHONPATH=TREE/src, N
times per tree (default 40), the trees alternating first. A command that
starts with `api`, such as "api hm 2,3 24" or "api readback FILE N", runs as
the benchmark runs its api jobs: `python3 TREE/perfbench/child.py api ...`.
The time is read from os.wait4, start-up included; PYTHONDONTWRITEBYTECODE
picks the cache."""

import argparse
import os
import shlex
import statistics
import sys
from subprocess import DEVNULL, Popen


def child_cpu(tree: str, argv: list[str]) -> float:
    if argv[:1] == ["api"]:
        cmd = [sys.executable, os.path.join(tree, "perfbench", "child.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "polyloop", *argv]
    proc = Popen(cmd, stdout=DEVNULL, stderr=DEVNULL,
                 env={**os.environ, "PYTHONPATH": f"{tree}/src"})
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_utime + usage.ru_stime


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=40)
    ap.add_argument("trees", nargs=2)
    ap.add_argument("commands", nargs="+")
    args = ap.parse_args()
    cpu = {(c, t): [] for c in args.commands for t in args.trees}
    for i in range(args.runs):
        for c in args.commands:
            for t in args.trees[:: 1 - 2 * (i % 2)]:
                cpu[c, t].append(child_cpu(t, shlex.split(c)))
    print("command", *args.trees, "change", sep="\t")
    for c in args.commands:
        a, b = (statistics.median(cpu[c, t]) * 1000 for t in args.trees)
        print(c, f"{a:.1f} ms", f"{b:.1f} ms", f"{(b - a) / a:+.1%}", sep="\t")
