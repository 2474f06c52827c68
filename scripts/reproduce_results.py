#!/usr/bin/env python3
"""Run every headline verification and print a one-line-per-check table.

Each row runs `polyloop verify` in-process over the default sweep: Porter
fibres against Hochster tables for paths, and decomposition series against
the Koszul oracle for paths and planar books. All comparisons are exact; a
row fails when verify exits nonzero, and the script then exits 1.
"""

import argparse
import contextlib
import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from polyloop.cli import main as polyloop


def check(name: str, *argv: str) -> bool:
    t0 = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()):
        ok = polyloop(["verify", *argv]) == 0
    print(f"{'ok ' if ok else 'FAIL'}  {name:40s} {(time.monotonic() - t0) * 1000:8.1f} ms")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-path", type=int, default=6, help="largest path length")
    ap.add_argument("--N", type=int, default=16, help="series comparison degree")
    ap.add_argument(
        "--books",
        default="2,2 2,3 3,2 4,2",
        help="space separated l,p pairs of planar books",
    )
    args = ap.parse_args()
    n = ("--N", str(args.N))

    rows = [(f"porter-hochster path l={l}", "porter-hochster", "path", str(l))
            for l in range(2, args.max_path + 1)]
    rows += [(f"koszul path l={l}", "koszul", "path", str(l), *n)
             for l in range(1, args.max_path + 1)]
    for pair in args.books.split():
        l, p = pair.split(",")
        rows.append((f"koszul planar book ({l},{p})", "koszul", "planar-book", l, p, *n))
    all_ok = all([check(*row) for row in rows])

    print("all checks passed" if all_ok else "MISMATCH FOUND", file=sys.stderr)
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
