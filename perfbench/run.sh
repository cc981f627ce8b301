#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it; every
# argument is passed on. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build: the
# binary, the Go build cache, scratch data directories and probe WALs, and
# the traced runs' spans.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/gocache"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
