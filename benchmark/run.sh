#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload grid-multiply --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary, the
# out-of-core spill files and the span files of traced runs. The build fails,
# and the script exits non-zero without printing a result, when the
# repository's module is not next to benchmark/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export CGO_ENABLED=0

(cd "$root/benchmark" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
