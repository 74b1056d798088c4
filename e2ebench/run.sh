#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; every argument goes to the benchmark, e.g.
#
#   bash e2ebench/run.sh --workload scan-pushdown --seed 1 --seconds 36 --trace 0
#
# The build cache, the binary, node data and trace output all stay under
# .bench_build/ in the current directory; nothing is written outside it.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out"

# Go writes its build cache, module cache and telemetry counters under these.
export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" --workdir "$out" "$@"
