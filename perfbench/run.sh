#!/usr/bin/env bash
# Builds the rt-backend benchmark from the sources of this checkout and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sp-64 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, shipped
# plans and span files all go under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .) >&2
exec "$out/perfbench-bin" "$@"
