#!/usr/bin/env python3
"""Print sphere multiset tables for the path and book fibres.

For each path length the table lists the dimensions and multiplicities of
the wedge of spheres that the fibre over the path decomposes into, and for
books the same for the page fibre wedge. Useful for eyeballing how the
multiplicities grow (binomial times a linear factor for paths).

Parameters the package refuses end the tables with `error: <message>` on
stderr and the exit code polyloop gives that error: 3 when the sphere
ceiling is too low, 2 for other invalid parameters.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from polyloop.decomp import book_C, dj_book_decompose, porter_wedge
from polyloop.errors import PolyloopError
from polyloop.spacealg import sphere_multiset_of


def fmt(counts: dict[int, int]) -> str:
    return "  ".join(f"S^{d} x{c}" for d, c in sorted(counts.items())) or "(point)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-path", type=int, default=7)
    ap.add_argument("--max-spine", type=int, default=6)
    ap.add_argument("--pages", type=int, default=2)
    ap.add_argument("--ceiling", type=int, default=16)
    args = ap.parse_args()
    try:
        tables(args)
    except PolyloopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def tables(args: argparse.Namespace) -> None:
    print("path fibres (moment-angle complexes of paths)")
    for l in range(2, args.max_path + 1):
        counts = sphere_multiset_of(porter_wedge(l), min(args.ceiling, l + 2)).counts
        print(f"  l={l}: {fmt(counts)}")

    print("\nbook page fibre summand C")
    for l in range(3, args.max_spine + 1):
        counts = sphere_multiset_of(book_C(l), min(args.ceiling, l + 2)).counts
        print(f"  l={l}: {fmt(counts)}")

    print(f"\nplanar book page fibre wedges (p={args.pages})")
    for l in range(2, args.max_spine + 1):
        r = dj_book_decompose(l, args.pages, n=8, max_dim=args.ceiling)
        ms = r.spheres["fibre"]
        star = " (truncated)" if ms.truncated else ""
        print(f"  l={l}: {fmt(ms.counts)}{star}")


if __name__ == "__main__":
    raise SystemExit(main())
