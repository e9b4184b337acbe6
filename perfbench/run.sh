#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 15 --trace 0
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build in the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
