#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload hit --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache and temporary files, telemetry, binary, scratch stores)
# stays under .bench_build/ in the current directory. The build needs the repository
# beside bench/ (bench/go.mod replaces module repro with ../), so a copy of
# bench/ alone fails to build and exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export TMPDIR="$out/tmp"
export GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export GOMAXPROCS=2

(cd "$root/bench" && go build -buildvcs=false -o "$out/bench" .)
exec "$out/bench" "$@"
