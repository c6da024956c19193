#!/usr/bin/env bash
# Builds the paper-model benchmark from this checkout's sources and runs it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays inside the checkout:
# .bench_build/ holds the Go build cache and the binary, .bench_out/ holds
# trace files and the temporary persist directories.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOTOOLCHAIN=local
export GOFLAGS=-mod=mod GOPROXY=off CGO_ENABLED=0
go build -C benchmark -buildvcs=false -o "$build/paperbench" . 1>&2
exec "$build/paperbench" "$@"
