#!/usr/bin/env bash
# Builds netsim and the benchmark from this checkout, then runs one
# workload. Run from the checkout root:
#
#   bash perfbench/run.sh --workload cli-light --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout (CARGO_TARGET_DIR names it when set).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
  /*) ;;
  *) out="$root/$out" ;;
esac
case "$out" in
  "$root"/*) ;;
  *) out="$root/.bench_build" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/netsim" ./cmd/netsim
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -netsim "$out/netsim" -root "$root" -workdir "$out" "$@"
