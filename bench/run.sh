#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload kernel-batch --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare A.json B.json
#
# The binary, the Go build cache and every temporary file (trace files,
# segment stores) stay under .bench_build/ in the working directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$out/lockdoc-bench" .)
exec "$out/lockdoc-bench" "$@"
