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
set -eu
parent=$1 change=$2 workload=$3 seconds=$4 trace=$5
shift 5
first=$parent second=$change
for seed in "$@"; do
    for tree in "$first" "$second"; do
        (cd "$tree" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace")
    done
    tmp=$first first=$second second=$tmp
done
