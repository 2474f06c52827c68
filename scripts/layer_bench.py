#!/usr/bin/env python3
"""In-process CPU time of named library calls, one row per layer, on two
source trees:

    python3 scripts/layer_bench.py [--repeat K] TREE_A TREE_B [ROW...]

A row builds its inputs, then times one call to public polyloop names with
time.process_time. Each run of a row is a fresh `python3 -c` child with
PYTHONPATH=TREE/src, K runs per tree (at least 1, default 5), the trees
alternating first from one run to the next. The child also hashes a digest of
the result, so a faster wrong answer shows as a changed digest, not as a
gain. For each row (all of them when none is named) one JSON line goes to
stdout:

    {"row": ..., "trees": [A, B], "runs": K, "min_s": [a, b],
     "median_s": [a, b], "sha256": [a, b], "digest_changed": bool, "exit": [a, b]}

A sha256 is "varies" when the runs on one tree disagree, and null when a run
failed; "exit" holds the last nonzero exit code of each tree's children, or 0.
The script exits 1 when a digest changed or a child failed."""

import argparse
import json
import os
import statistics
import subprocess
import sys

_READBACK = """import math, random
parts = [f"(sphere {k + 1})" for k in range(2, 16) for _ in range((k - 1) * math.comb(15, k))]
random.Random(0).shuffle(parts)
text = "(wedge " + " ".join(parts) + ")"
"""

_CONE_C17 = "K = from_facets(18, [f + (17,) for f in cycle_graph(17).facets()])"

# name -> (setup, timed expression, digest of `result`); the digest's repr is hashed
ROWS = {
    "complexes.planar_book_20_4": (
        "from polyloop import planar_book", "planar_book(20, 4)", "sorted(result.faces)"),
    "complexes.is_flag_planar_book_20_4": (
        "from polyloop import planar_book\nK = planar_book(20, 4)", "K.is_flag()", "result"),
    "homology.hochster_cone_c17": (
        "from polyloop import cycle_graph, from_facets, hochster_zk_betti\n" + _CONE_C17,
        "hochster_zk_betti(K)", "result.ranks"),
    "homology.hochster_path_40": (
        "from polyloop import hochster_zk_betti, path_graph\nK = path_graph(40)",
        "hochster_zk_betti(K, ceiling=41)", "result.ranks"),
    "homology.hochster_planar_book_6_3": (
        "from polyloop import hochster_zk_betti, planar_book\nK = planar_book(6, 3)",
        "hochster_zk_betti(K, ceiling=22)", "result.ranks"),
    "series.koszul_planar_book_10_2": (
        "from polyloop import koszul_loop_series, planar_book\nK = planar_book(10, 2)",
        "koszul_loop_series(K, 1024)", "result.coeffs"),
    "spacealg.parse_readback_porter_15": (
        "from polyloop import format_sexpr, parse_sexpr\n" + _READBACK,
        "parse_sexpr(text)", "format_sexpr(result)"),
    "spacealg.normalize_readback_porter_15": (
        "from polyloop import format_sexpr, normalize, parse_sexpr\n" + _READBACK
        + "e = parse_sexpr(text)", "normalize(e)", "format_sexpr(result)"),
    "spacealg.hilton_milnor_5_10": (
        "from polyloop import hilton_milnor, poincare_series, porter_wedge\nW = porter_wedge(5)",
        "hilton_milnor(W, 10)", "poincare_series(result, 9).coeffs"),
    "spacealg.hilton_milnor_40_14": (
        "from polyloop import hilton_milnor, poincare_series, porter_wedge\nW = porter_wedge(40)",
        "hilton_milnor(W, 14)", "poincare_series(result, 13).coeffs"),
    "decomp.dj_book_series_10_2": (
        "from polyloop import dj_book_decompose", "dj_book_decompose(10, 2, n=1024).series",
        "result.coeffs"),
    "decomp.path_decompose_40": (
        "import json\nfrom polyloop import path_decompose", "path_decompose(40)",
        "json.dumps(result.to_json_obj(term=repr), sort_keys=True)"),
    "emit.sexpr_pieces_porter_20": (
        "import os\nfrom polyloop import porter_wedge\nfrom polyloop.spacealg import sexpr_pieces\n"
        "e = porter_wedge(20)\nsink = open(os.devnull, 'w')",
        "sum(map(sink.write, sexpr_pieces(e)))", "result"),
}

# one run of a row: argv is setup, timed expression, digest
CHILD = """import hashlib, json, sys, time
setup, expr, digest = sys.argv[1:4]
env = {}
exec(setup, env)
t0 = time.process_time()
env["result"] = eval(expr, env)
cpu_s = time.process_time() - t0
text = repr(eval(digest, env)).encode()
print(json.dumps({"cpu_s": cpu_s, "sha256": hashlib.sha256(text).hexdigest()}))
"""


def run_row(tree: str, row: tuple[str, str, str]) -> tuple[float, str, int]:
    """CPU seconds, digest and exit code of one run of the row on the tree."""
    proc = subprocess.run([sys.executable, "-c", CHILD, *row], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.path.join(tree, "src")})
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        return 0.0, "", proc.returncode
    out = json.loads(proc.stdout)
    return out["cpu_s"], out["sha256"], 0


def at_least_one(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=at_least_one, default=5)
    ap.add_argument("trees", nargs=2)
    ap.add_argument("rows", nargs="*", metavar="ROW", help="default: every row")
    args = ap.parse_args()
    if unknown := [r for r in args.rows if r not in ROWS]:
        ap.error(f"unknown rows {unknown}; the rows are {list(ROWS)}")
    rows = args.rows or list(ROWS)
    cpu = {(r, t): [] for r in rows for t in args.trees}
    digests = {(r, t): set() for r in rows for t in args.trees}
    exits = {(r, t): 0 for r in rows for t in args.trees}
    for i in range(args.repeat):
        for r in rows:
            for t in args.trees[:: 1 - 2 * (i % 2)]:
                seconds, digest, code = run_row(t, ROWS[r])
                if code:
                    exits[r, t] = code
                else:
                    cpu[r, t].append(seconds)
                    digests[r, t].add(digest)
    bad = False
    for r in rows:
        times = [cpu[r, t] for t in args.trees]
        codes = [exits[r, t] for t in args.trees]
        shas = [None if code else next(iter(d)) if len(d) == 1 else "varies"
                for code, d in zip(codes, (digests[r, t] for t in args.trees))]
        changed = shas[0] != shas[1] or "varies" in shas
        bad = bad or changed or any(codes)
        print(json.dumps({
            "row": r, "trees": args.trees, "runs": args.repeat,
            "min_s": [round(min(s), 6) if s else None for s in times],
            "median_s": [round(statistics.median(s), 6) if s else None for s in times],
            "sha256": shas, "digest_changed": changed, "exit": codes,
        }), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
