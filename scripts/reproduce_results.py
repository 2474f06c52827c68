#!/usr/bin/env python3
"""Run every headline verification and print a one-line-per-check table.

This is the scripted equivalent of `polyloop verify` over the whole default
sweep: Porter fibres against Hochster tables for paths, and decomposition
series against the Koszul oracle for paths and planar books. All comparisons
are exact; the script exits nonzero if anything disagrees.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from polyloop.complexes import path_graph, planar_book
from polyloop.decomp import dj_book_decompose, path_decompose, path_fibre_reduce
from polyloop.homology import zk_sphere_multiset
from polyloop.series import koszul_loop_series
from polyloop.spacealg import sphere_multiset_of


def check(name: str, ok: bool, dt: float) -> bool:
    print(f"{'ok ' if ok else 'FAIL'}  {name:40s} {dt * 1000:8.1f} ms")
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

    all_ok = True
    for l in range(2, args.max_path + 1):
        t0 = time.monotonic()
        engine = sphere_multiset_of(path_fibre_reduce(l), l + 2).counts
        oracle = zk_sphere_multiset(path_graph(l)).counts
        all_ok &= check(f"porter-hochster path l={l}", engine == oracle, time.monotonic() - t0)

    for l in range(1, args.max_path + 1):
        t0 = time.monotonic()
        engine = path_decompose(l, n=args.N, max_dim=max(l + 2, 3)).series
        oracle = koszul_loop_series(path_graph(l), args.N)
        all_ok &= check(f"koszul path l={l}", engine == oracle, time.monotonic() - t0)

    for pair in args.books.split():
        l, p = (int(x) for x in pair.split(","))
        t0 = time.monotonic()
        engine = dj_book_decompose(l, p, n=args.N, max_dim=args.N).series
        oracle = koszul_loop_series(planar_book(l, p), args.N)
        all_ok &= check(f"koszul planar book ({l},{p})", engine == oracle, time.monotonic() - t0)

    print("all checks passed" if all_ok else "MISMATCH FOUND", file=sys.stderr)
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
