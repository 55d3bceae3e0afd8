#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload fanout --seed 1 --seconds 40 --trace 0
#
# Run from the repository root. Build cache, binary and trace output stay
# under .bench_build/ and .bench_out/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
