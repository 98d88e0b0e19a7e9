#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own) and runs it from the
# repository root. The Go build cache is kept inside the checkout so
# the benchmark reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go -C benchmark build -o ../.bench_build/bench .
exec .bench_build/bench "$@"
