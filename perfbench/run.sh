#!/usr/bin/env bash
# Builds the benchmark and metricscheck from this checkout, then runs
# one benchmark run. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-closed-form --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build): the Go build
# cache, the binaries, traces and result records.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
    echo "perfbench: run from the root of a repository checkout" >&2
    exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd perfbench && go build -o "$build/perfbench" .) >&2
go build -o "$build/metricscheck" ./cmd/metricscheck >&2

exec "$build/perfbench" -out "$build" -metricscheck "$build/metricscheck" "$@"
