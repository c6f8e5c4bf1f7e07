#!/usr/bin/env bash
# Entry point of the benchmark: builds the bench (a Go module of its own in
# this directory) and runs it in the checkout the script sits in, whatever the
# caller's working directory. Everything the build and the run write — Go's
# build cache included — stays under .bench_build/ in that checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p .bench_build/bin
go build -C bench -o ../.bench_build/bin/bench .
exec .bench_build/bin/bench "$@"
