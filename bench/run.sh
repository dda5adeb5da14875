#!/usr/bin/env bash
# The command BENCHMARK.json names.  It builds cmd/psibench from the
# checkout's source and runs it with the arguments it was given
# (--workload NAME --seed N --seconds S --trace 0|1).  Build cache, temp
# files and the binary all live in .bench_build/ inside the checkout, and
# nothing is fetched: the module has no dependencies outside the standard
# library.  In a directory without the program's source the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$build/psibench" ./cmd/psibench
exec "$build/psibench" "$@"
