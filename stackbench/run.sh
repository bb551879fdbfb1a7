#!/usr/bin/env bash
# Builds the stack benchmark from this checkout's sources and runs it.
#
#   bash stackbench/run.sh --workload measure --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, temp files, the binary, the
# traced run's span dump) stays under .bench_build at the checkout root.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$here/../$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

(cd "$here" && go build -o "$build/stackbench" .)
exec "$build/stackbench" -spans-dir "$build/spans" "$@"
