#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the go tool keeps — build cache, module cache, its own
# configuration and telemetry counters — and the binary live under
# <checkout>/.bench_build, so nothing is read or written outside the
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off
cd "$here"
go build -o "$build/privid-bench" .
exec "$build/privid-bench" "$@"
