#!/usr/bin/env bash
# Builds the served-path benchmark from this checkout's sources and runs
# it with the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload seq-cold --seed 1 --seconds 10 --trace 0
#
# The build and the Go build cache live under .bench_build (or
# $CARGO_TARGET_DIR when set), so the run reads and writes only inside the
# checkout. The toolchain stays local and the module proxy off: the
# benchmark needs nothing beyond the standard library and this repository.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
