#!/usr/bin/env bash
# Builds the benchmark and messi-serve from the checkout that holds this
# script, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build output and scratch file stays under .bench_build/ at the
# checkout root. Without the repository's sources the build fails, so the
# script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$root" && go build -o "$out/messi-serve" ./cmd/messi-serve) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -serve "$out/messi-serve" -out "$out" "$@"
