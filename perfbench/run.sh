#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload oltp --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build), so nothing outside the checkout is touched.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off GOPROXY=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
