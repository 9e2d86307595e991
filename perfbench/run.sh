#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind goes to .bench_build/ in
# the checkout: the Go build cache, temporary files, the binary, per-run
# result files and spans.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/perfbench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
    echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
    exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
    TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
