#!/usr/bin/env python3
"""Median child CPU time (user + sys) of CLI commands on two source trees:

    python3 scripts/child_cpu.py [--runs N] TREE_A TREE_B "build points 1" ...

Each command runs as `python3 -m polyloop ARGS` with PYTHONPATH=TREE/src, N
times per tree (at least 1, default 40), the trees alternating first. A
command that starts with `api`, such as "api hm 2,3 24" or "api readback
FILE N", runs as the benchmark runs its api jobs: `python3
TREE/perfbench/child.py api ...`.
The time is read from os.wait4, start-up included; PYTHONDONTWRITEBYTECODE
picks the cache. A tree on which a command exits nonzero shows the exit code
in place of a time, and the script then exits 1."""

import argparse
import os
import shlex
import statistics
import sys
from subprocess import DEVNULL, Popen


def child_cpu(tree: str, argv: list[str]) -> tuple[float, int]:
    """CPU seconds and exit code of one run of the command on the tree."""
    if argv[:1] == ["api"]:
        cmd = [sys.executable, os.path.join(tree, "perfbench", "child.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "polyloop", *argv]
    proc = Popen(cmd, stdout=DEVNULL, stderr=DEVNULL,
                 env={**os.environ, "PYTHONPATH": f"{tree}/src"})
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_utime + usage.ru_stime, proc.returncode


def at_least_one(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=at_least_one, default=40)
    ap.add_argument("trees", nargs=2)
    ap.add_argument("commands", nargs="+")
    args = ap.parse_args()
    cpu = {(c, t): [] for c in args.commands for t in args.trees}
    failed = {}  # (command, tree) -> the last nonzero exit code
    for i in range(args.runs):
        for c in args.commands:
            for t in args.trees[:: 1 - 2 * (i % 2)]:
                seconds, code = child_cpu(t, shlex.split(c))
                cpu[c, t].append(seconds)
                if code:
                    failed[c, t] = code
    print("command", *args.trees, "change", sep="\t")
    for c in args.commands:
        a, b = (statistics.median(cpu[c, t]) * 1000 for t in args.trees)
        cells = [f"exit {failed[c, t]}" if (c, t) in failed else f"{ms:.1f} ms"
                 for t, ms in zip(args.trees, (a, b))]
        change = "-" if any((c, t) in failed for t in args.trees) else f"{(b - a) / a:+.1%}"
        print(c, *cells, change, sep="\t")
    sys.exit(1 if failed else 0)
