#!/usr/bin/env bash
# Runs every workload (or the ones named) once per seed and saves each
# run's output under OUT_DIR, ready for `run.sh compare`. Run from the root
# of a checkout:
#
#   bash pipebench/sweep.sh OUT_DIR SECONDS TRACE SEEDS... [-- WORKLOAD...]
#
# e.g. bash pipebench/sweep.sh .bench_build/base 20 0 1 2 3 4 5 6 7 8 9 10
set -euo pipefail

out=$1 seconds=$2 trace=$3
shift 3
seeds=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do seeds+=("$1"); shift; done
[ $# -gt 0 ] && shift
workloads=("$@")
[ ${#workloads[@]} -eq 0 ] && workloads=(solve-twitter churn-steady diurnal-replay)

here=$(dirname "${BASH_SOURCE[0]}")
mkdir -p "$out"
for w in "${workloads[@]}"; do
	for s in "${seeds[@]}"; do
		bash "$here/run.sh" --workload "$w" --seed "$s" --seconds "$seconds" --trace "$trace" \
			>"$out/$w-seed$s-trace$trace.out" 2>"$out/$w-seed$s-trace$trace.err"
		tail -n 1 "$out/$w-seed$s-trace$trace.out" | cut -c1-160
	done
done
