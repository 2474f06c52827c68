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
# only (scripts/layer_bench.py's stdlib_pycache, the rule its children run
# under too), so the runs compile the tree's modules, as a fresh checkout
# does, and not the whole standard library.
set -eu
parent=$1 change=$2 workload=$3 seconds=$4 trace=$5
shift 5
cache=
trap 'rm -rf "$cache"' EXIT
first=$parent second=$change
for seed in "$@"; do
    for tree in "$first" "$second"; do
        cache=$(mktemp -d)
        PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=$(dirname "$0") python3 -c \
            'import sys, layer_bench; layer_bench.stdlib_pycache(sys.argv[1])' "$cache"
        (cd "$tree" && PYTHONDONTWRITEBYTECODE=1 PYTHONPYCACHEPREFIX="$cache" \
            python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace")
        rm -rf "$cache"
    done
    tmp=$first first=$second second=$tmp
done
