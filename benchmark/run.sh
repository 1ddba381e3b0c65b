#!/bin/bash
# Builds the benchmark into .bench_build/ at the root of the checkout and runs
# it with the given arguments. Everything the build writes — the binary, Go's
# build cache and its temporary files — stays inside the checkout.
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/vmbench" .
exec "$build/vmbench" "$@"
