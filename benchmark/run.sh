#!/usr/bin/env bash
# Builds the ledger harness inside the checkout and runs it from the
# checkout root. Everything the Go toolchain writes (build cache, temp
# files, binaries) stays under .bench_build/; see README.md.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/ledger" .)
cd "$root"
exec "$build/ledger" "$@"
