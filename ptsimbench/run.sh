#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from the
# repository root. The binary, the Go build cache and the span files stay
# under .bench_build/ in that root; nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/ptsimbench" && go build -o "$out/ptsimbench" .)
exec "$out/ptsimbench" "$@"
