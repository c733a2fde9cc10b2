#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout — binary and Go build
# cache both under .bench_build/ — and runs it with the arguments given.
# bench/ is a module of its own (bench/go.mod) that imports the repository's
# packages through a replace directive, so it must sit in a full checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p .bench_build
(cd bench && go build -o "$root/.bench_build/tpcxiot-bench" .)
exec .bench_build/tpcxiot-bench "$@"
