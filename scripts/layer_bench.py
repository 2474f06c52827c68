#!/usr/bin/env python3
"""CPU time and a digest of the output of named library calls and CLI
commands on two source trees:

    python3 scripts/layer_bench.py [--repeat K] TREE_A TREE_B [ROW...]

A ROW is a name from the table below or a quoted command whose first word is
a CLI subcommand or `api` ("verify all path 10", "api hm 2,3 24"). Each run
of a row is a fresh child with PYTHONPATH=TREE/src, K runs per tree (at least
1, default 5), the trees alternating first from one run to the next.

- A library row is a `python3 -c` child that builds its inputs, then times
  one call to public polyloop names with time.process_time. Its digest is the
  sha256 of the repr of a digest of the result.
- A command row runs `python3 -m polyloop ARGS`, or TREE/perfbench/child.py
  for `api`, as the benchmark runs its api jobs. Its time is the child's user
  + sys CPU from os.wait4, start-up included. Its digest is the sha256 of its
  stdout, read in chunks.

So a faster wrong answer shows as a changed digest, not as a gain. Every
child runs with PYTHONDONTWRITEBYTECODE=1 and one PYTHONPYCACHEPREFIX, made
at start and removed at exit, that holds the standard library's bytecode
only: each child compiles its tree's source, so bytecode cached in one tree
cannot favour it. For each row (all of them when none is named) one JSON line
goes to stdout:

    {"row": ..., "trees": [A, B], "runs": K, "min_s": [a, b],
     "median_s": [a, b], "sha256": [a, b], "digest_changed": bool, "exit": [a, b]}

A sha256 is "varies" when the runs on one tree disagree, and null when a run
failed; "exit" holds the last nonzero exit code of each tree's children, or 0.
The script exits 1 when a digest changed or a child failed."""

import argparse
import hashlib
import json
import os
import shlex
import statistics
import sys
import sysconfig
import tempfile
from subprocess import PIPE, Popen

_READBACK = """import math, random
parts = [f"(sphere {k + 1})" for k in range(2, 16) for _ in range((k - 1) * math.comb(15, k))]
random.Random(0).shuffle(parts)
text = "(wedge " + " ".join(parts) + ")"
"""

_CONE_C17 = "K = from_facets(18, [f + (17,) for f in cycle_graph(17).facets()])"

# the flag triangulation of the 4 x 5 grid, vertex i*5 + j: a complex with
# triangles that is not a join
_GRID_4X5 = """K = from_facets(20, [f for i in range(3) for j in range(4) for f in (
    (i * 5 + j, i * 5 + j + 5, i * 5 + j + 6), (i * 5 + j, i * 5 + j + 1, i * 5 + j + 6))])"""

# the tower e_0 = S^3, e_(k+1) = Loop(Prod((Susp(Susp(e_k)), S^3))) at k = 10: its
# normal form shares subterms that the series walks once per parent
_TOWER_10 = """from polyloop import Loop, Prod, Sphere, Susp, poincare_series
e = Sphere(3)
for _ in range(10):
    e = Loop(Prod((Susp(Susp(e)), Sphere(3))))"""

# name -> (setup, timed expression, digest of `result`) for a library row, whose
# digest's repr is hashed, or the command of a command row
ROWS = {
    "complexes.planar_book_20_4": (
        "from polyloop import planar_book", "planar_book(20, 4)", "sorted(result.faces)"),
    "complexes.book_graph_18_40_50": (
        "from polyloop import book_graph", "book_graph(18, 40, 50)", "sorted(result.faces)"),
    "complexes.is_flag_planar_book_20_4": (
        "from polyloop import planar_book\nK = planar_book(20, 4)", "K.is_flag()", "result"),
    "homology.hochster_cone_c17": (
        "from polyloop import cycle_graph, from_facets, hochster_zk_betti\n" + _CONE_C17,
        "hochster_zk_betti(K)", "result.ranks"),
    "homology.hochster_grid_4x5": (
        "from polyloop import from_facets, hochster_zk_betti\n" + _GRID_4X5,
        "hochster_zk_betti(K)", "result.ranks"),
    "homology.hochster_path_40": (
        "from polyloop import hochster_zk_betti, path_graph\nK = path_graph(40)",
        "hochster_zk_betti(K, ceiling=41)", "result.ranks"),
    "homology.hochster_planar_book_6_3": (
        "from polyloop import hochster_zk_betti, planar_book\nK = planar_book(6, 3)",
        "hochster_zk_betti(K, ceiling=22)", "result.ranks"),
    "series.hilbert_planar_book_10_2": (
        "from polyloop import hilbert_sr, planar_book\nK = planar_book(10, 2)",
        "hilbert_sr(K, 1024)", "result.coeffs"),
    "series.koszul_planar_book_10_2": (
        "from polyloop import koszul_loop_series, planar_book\nK = planar_book(10, 2)",
        "koszul_loop_series(K, 1024)", "result.coeffs"),
    "spacealg.parse_readback_porter_15": (
        "from polyloop import format_sexpr, parse_sexpr\n" + _READBACK,
        "parse_sexpr(text)", "format_sexpr(result)"),
    "spacealg.parse_nested_planar_book_7_3": (
        "from polyloop import dj_book_decompose, format_sexpr, parse_sexpr\n"
        "text = '(prod ' + ' '.join(format_sexpr(e) for _, e in dj_book_decompose(7, 3).factors)"
        " + ')'", "parse_sexpr(text)", "format_sexpr(result)"),
    "spacealg.normalize_readback_porter_15": (
        "from polyloop import format_sexpr, normalize, parse_sexpr\n" + _READBACK
        + "e = parse_sexpr(text)", "normalize(e)", "format_sexpr(result)"),
    "spacealg.hilton_milnor_5_10": (
        "from polyloop import hilton_milnor, poincare_series, porter_wedge\nW = porter_wedge(5)",
        "hilton_milnor(W, 10)", "poincare_series(result, 9).coeffs"),
    "spacealg.hilton_milnor_40_14": (
        "from polyloop import hilton_milnor, poincare_series, porter_wedge\nW = porter_wedge(40)",
        "hilton_milnor(W, 14)", "poincare_series(result, 13).coeffs"),
    "spacealg.series_tower_10": (_TOWER_10, "poincare_series(e, 12)", "result.coeffs"),
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
    "cli.build_points_1": "build points 1",
    "cli.verify_all_path_14": "verify all path 14",
    "cli.verify_porter_hochster_path_14": "verify porter-hochster path 14 --jobs 2",
    "cli.verify_koszul_planar_book_7_2": "verify koszul planar-book 7 2",
    "cli.decompose_path_20": "decompose path 20",
    "cli.verify_koszul_planar_book_10_2_N_1024": "verify koszul planar-book 10 2 --N 1024",
    "cli.decompose_planar_book_3_2_max_dim_1000": "decompose planar-book 3 2 --max-dim 1000",
    "cli.verify_all_path_40": "verify all path 40",
    "cli.decompose_planar_book_7_3_text": "decompose planar-book 7 3 --format text",
    "cli.build_book_18_40_50": "build book 18 40 50",
    "cli.decompose_book_1_3_2": "decompose book 1 3 2",
}

# the first words of a command row: the CLI's subcommands, and perfbench's api jobs
COMMANDS = ("build", "decompose", "verify", "hochster", "series", "api")

# one run of a library row: argv is setup, timed expression, digest; it prints
# the CPU seconds of the call on one line, then the digest's repr
CHILD = """import sys, time
setup, expr, digest = sys.argv[1:4]
env = {}
exec(setup, env)
t0 = time.process_time()
env["result"] = eval(expr, env)
print(time.process_time() - t0)
sys.stdout.write(repr(eval(digest, env)))
"""


def stdlib_pycache(prefix: str) -> None:
    """Fill the bytecode cache PREFIX with links to the standard library's own
    cached bytecode (site-packages and tests left out). A child run with
    PYTHONPYCACHEPREFIX=PREFIX then compiles its tree's modules, as a fresh
    checkout does, and not the whole standard library."""
    for root, dirs, files in os.walk(sysconfig.get_path("stdlib")):
        dirs[:] = [d for d in dirs if d not in ("site-packages", "test", "tests")]
        if os.path.basename(root) == "__pycache__":
            dest = prefix + os.path.dirname(root)
            os.makedirs(dest, exist_ok=True)
            for f in files:
                os.symlink(os.path.join(root, f), os.path.join(dest, f))


def run_row(tree: str, row: tuple[str, str, str] | str, prefix: str) -> tuple[float, str, int]:
    """CPU seconds, digest and exit code of one run of the row on the tree,
    with the bytecode cache PREFIX."""
    library = isinstance(row, tuple)
    if library:
        cmd = ["-c", CHILD, *row]
    else:
        argv = shlex.split(row)
        cmd = [os.path.join(tree, "perfbench", "child.py")] if argv[0] == "api" else ["-m", "polyloop"]
        cmd += argv
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"),
           "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": prefix}
    with Popen([sys.executable, *cmd], stdout=PIPE, env=env) as proc:
        head = proc.stdout.readline() if library else b""
        sha = hashlib.sha256()
        while chunk := proc.stdout.read(1 << 16):
            sha.update(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        return 0.0, "", proc.returncode
    return float(head) if library else usage.ru_utime + usage.ru_stime, sha.hexdigest(), 0


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
    if unknown := [r for r in args.rows if r not in ROWS and (r.split() or [""])[0] not in COMMANDS]:
        ap.error(f"unknown rows {unknown}; the rows are {list(ROWS)}, or a command "
                 f"that starts with one of {list(COMMANDS)}")
    rows = args.rows or list(ROWS)
    cpu = {(r, t): [] for r in rows for t in args.trees}
    digests = {(r, t): set() for r in rows for t in args.trees}
    exits = {(r, t): 0 for r in rows for t in args.trees}
    with tempfile.TemporaryDirectory() as prefix:
        stdlib_pycache(prefix)
        for i in range(args.repeat):
            for r in rows:
                for t in args.trees[:: 1 - 2 * (i % 2)]:
                    seconds, digest, code = run_row(t, ROWS.get(r, r), prefix)
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
