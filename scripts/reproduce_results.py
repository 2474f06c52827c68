#!/usr/bin/env python3
"""Run every headline verification and print a one-line-per-check table.

Each row runs `polyloop verify` in-process over the default sweep: Porter
fibres against Hochster tables for paths, and decomposition series against
the Koszul oracle for paths and planar books. The paths are those of length
up to 6 and the path of length 40. All comparisons are exact; a row fails
when verify exits 1, and the script then exits 1. A row whose verify refuses
the input, with any other nonzero exit code, shows that code; it is not a
mismatch, and unless a row fails the script then exits 2. A --books entry
that is not two integers is a usage error.

A Koszul row compares the two series in degrees 0..N only (--N, default 16):
its "ok" says nothing about higher degrees.
"""

import argparse
import contextlib
import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from polyloop.cli import main as polyloop


def check(name: str, *argv: str) -> int:
    """Run one row and print it; the exit code of its verify call."""
    t0 = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()):
        code = polyloop(["verify", *argv])
    label = {0: "ok ", 1: "FAIL"}.get(code, f"exit {code}")
    print(f"{label}  {name:40s} {(time.monotonic() - t0) * 1000:8.1f} ms")
    return code


def book_pairs(text: str) -> list[tuple[int, int]]:
    """The space separated l,p pairs of --books, as integers."""
    try:
        pairs = [tuple(map(int, pair.split(","))) for pair in text.split()]
        if all(len(pair) == 2 for pair in pairs):
            return pairs
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected space separated l,p integer pairs: {text!r}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-path", type=int,
                    help="largest path length (default: up to 6, and the path of length 40)")
    ap.add_argument("--N", type=int, default=16, help="series comparison degree")
    ap.add_argument(
        "--books",
        type=book_pairs,
        default="2,2 2,3 3,2 4,2",
        help="space separated l,p pairs of planar books",
    )
    args = ap.parse_args()
    n = ("--N", str(args.N))

    paths = [*range(1, 7), 40] if args.max_path is None else range(1, args.max_path + 1)

    rows = [(f"porter-hochster path l={l}", "porter-hochster", "path", str(l))
            for l in paths if l >= 2]
    rows += [(f"koszul path l={l}", "koszul", "path", str(l), *n) for l in paths]
    rows += [(f"koszul planar book ({l},{p})", "koszul", "planar-book", str(l), str(p), *n)
             for l, p in args.books]
    codes = [check(*row) for row in rows]

    if 1 in codes:
        print("MISMATCH FOUND", file=sys.stderr)
        return 1
    if any(codes):
        print("no mismatch, but verify refused some rows", file=sys.stderr)
        return 2
    print("all checks passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
