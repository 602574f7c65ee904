#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs
# it with the arguments given. Everything the Go toolchain writes (build
# cache, temp files) is kept inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$here"
go build -o "$build/rjbench" .
exec "$build/rjbench" "$@"
