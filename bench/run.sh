#!/usr/bin/env bash
# The command of BENCHMARK.json: builds and runs the benchmark with every
# byte the Go toolchain writes kept inside the checkout, so it works where
# $HOME is unset or read-only. Arguments go to the program unchanged.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath" # never filled: the module has no dependency outside the checkout
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
unset GOBIN GOMODCACHE

cd "$bench"
exec go run . "$@"
