#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the root of the repository checkout:
#
#   bash perfbench/run.sh --workload churn-bare --seed 1 --seconds 16 --trace 0
#   bash perfbench/run.sh compare parent.jsonl change.jsonl
#
# Everything the build and the runs leave behind lands in .bench_build/
# under the checkout (Go build cache, GOPATH and the go command's config
# directory included), so nothing outside the checkout is written. A
# checkout without the DPS module at its root fails the build and exits
# non-zero before any result is printed.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
# the go command keeps its config and telemetry counters under here
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
(cd perfbench && go build -o "$root/.bench_build/perfbench" .)
exec "$root/.bench_build/perfbench" "$@"
