#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it; every argument goes to the benchmark. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload horizon-3y --seed 1 --seconds 10 --trace 0
#
# Everything it writes goes under $CARGO_TARGET_DIR (default
# .bench_build), including the Go build cache.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
