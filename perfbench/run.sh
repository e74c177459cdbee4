#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload maxcut-qaoa --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# journals, span logs) stays under .bench_build/ in the repository root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" TMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
