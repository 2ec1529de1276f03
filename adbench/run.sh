#!/usr/bin/env bash
# Builds adbench from this checkout's sources and runs it with the given
# arguments. Run from the root of the checkout:
#
#   bash adbench/run.sh --workload edit --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the checkout: the binary, the Go build cache, the Go tool's own
# state, the data directories and the span files.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
XDG_CONFIG_HOME="$out/config" go -C "$root/adbench" build -o "$out/adbench" . >&2
exec "$out/adbench" "$@"
