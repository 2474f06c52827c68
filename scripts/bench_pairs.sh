#!/bin/sh
# Alternating parent/change runs of the benchmark, for a BENCH_*.json record.
#
#   scripts/bench_pairs.sh PARENT_TREE CHANGE_TREE WORKLOAD SECONDS TRACE SEED... >> BENCH_x.json
#
# PARENT_TREE and CHANGE_TREE are checkouts of the two commits (a git clone or
# git archive of each). For each seed, both trees run
#   python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds SECONDS --trace TRACE
# with the parent first for the first seed and the order swapped for each
# next seed. The run_record and result lines of every run go to stdout as the
# benchmark prints them, in run order; the src_sha256 field of a run_record
# tells which tree made it.
#
# Every run has PYTHONDONTWRITEBYTECODE=1 and PYTHONPYCACHEPREFIX set to a
# fresh directory, removed afterwards, so no run reads bytecode cached in
# either tree: a stale __pycache__ in one tree cannot favour it. The
# directory starts with links to the standard library's own cached bytecode
# only (site-packages and tests left out), so the runs compile the tree's
# modules, as a fresh checkout does, and not the whole standard library.
set -eu
parent=$1 change=$2 workload=$3 seconds=$4 trace=$5
shift 5
cache=
trap 'rm -rf "$cache"' EXIT
first=$parent second=$change
for seed in "$@"; do
    for tree in "$first" "$second"; do
        cache=$(mktemp -d)
        python3 - "$cache" <<'EOF'
import os, sys, sysconfig

prefix = sys.argv[1]
for root, dirs, files in os.walk(sysconfig.get_path("stdlib")):
    dirs[:] = [d for d in dirs if d not in ("site-packages", "test", "tests")]
    if os.path.basename(root) == "__pycache__":
        dest = prefix + os.path.dirname(root)
        os.makedirs(dest, exist_ok=True)
        for f in files:
            os.symlink(os.path.join(root, f), os.path.join(dest, f))
EOF
        (cd "$tree" && PYTHONDONTWRITEBYTECODE=1 PYTHONPYCACHEPREFIX="$cache" \
            python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace")
        rm -rf "$cache"
    done
    tmp=$first first=$second second=$tmp
done
