#!/usr/bin/env bash
# Builds the paper-matrix benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash paperbench/run.sh --workload fresh-inputs --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. The Go build cache, temporary files and the
# binary stay under .bench_build/ so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/paperbench" && go build -o "$out/paperbench" .)
exec "$out/paperbench" "$@"
