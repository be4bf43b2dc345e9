#!/usr/bin/env bash
# Builds the benchmark and the sbserve/sbrouter binaries from this
# checkout, then runs the benchmark with the given arguments. Run it from
# the repository root, for example:
#
#   bash ledger/run.sh --workload suite --seed 1 --seconds 25 --trace 0
#
# Builds, the Go build cache, fleet working space and one JSON record per
# run (for cmd/compare) all go under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$build/bin/sbserve" ./cmd/sbserve
go build -o "$build/bin/sbrouter" ./cmd/sbrouter
(cd ledger && go build -o "$build/bin/ledger" .)
exec "$build/bin/ledger" -bin "$build/bin" -work "$build/work" -out "$build/results" "$@"
