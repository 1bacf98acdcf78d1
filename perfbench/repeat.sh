#!/usr/bin/env bash
# Runs one workload once per seed and keeps each run's output, for
# `perfbench report`:
#
#   bash perfbench/repeat.sh <label> <workload> <seconds> <trace> <seed>...
#
# Outputs land in .bench_build/runs/<label>/<workload>-t<trace>-seed<seed>.txt.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
label=$1 workload=$2 seconds=$3 trace=$4
shift 4
dir="$root/.bench_build/runs/$label"
mkdir -p "$dir"
for seed in "$@"; do
  out="$dir/$workload-t$trace-seed$seed.txt"
  bash "$root/perfbench/run.sh" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" >"$out" 2>"$out.err"
  tail -n 1 "$out"
done
