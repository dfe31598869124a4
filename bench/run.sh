#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root. Everything the Go toolchain writes (build cache, module
# cache, its telemetry counters, the binary) stays under .bench_build/, so a
# run touches nothing outside the checkout and needs no network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
XDG_CONFIG_HOME="$build/config" go build -C "$here" -o "$build/swampbench" .
cd "$root"
exec "$build/swampbench" "$@"
