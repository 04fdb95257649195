#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash perfbench/run.sh --workload link|annotate|update-mix --seed N --seconds S --trace 0|1 [--record FILE]
#   bash perfbench/run.sh compare [-bench BENCHMARK.json] parent.jsonl change.jsonl
#   bash perfbench/run.sh overhead untraced.jsonl traced.jsonl
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, temporary files, the binary,
# the generated dataset and the span dumps of traced runs.
set -euo pipefail
b="$(pwd)/.bench_build"
mkdir -p "$b/tmp"
export GOCACHE="$b/go-cache" GOTMPDIR="$b/tmp" GOPATH="$b/gopath" \
	GOMODCACHE="$b/gopath/pkg/mod" XDG_CONFIG_HOME="$b/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$b/perfbench" .)
exec "$b/perfbench" "$@"
