#!/usr/bin/env bash
# Builds ssrq-server and the benchmark from the sources of the checkout in
# the current directory, then runs the benchmark with the given arguments,
# e.g. bash perfbench/run.sh --workload read-hot --seed 1 --seconds 20 --trace 0
# Build products, Go caches, datasets, WALs and reports all stay under
# .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config/go/telemetry"
# Telemetry off: in its default "local" mode every go command forks a
# detached telemetry child that outlives the build and the benchmark.
echo off > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= \
	XDG_CONFIG_HOME="$out/config"
go build -o "$out/ssrq-server" ./cmd/ssrq-server
go -C perfbench build -o "$out/perfbench" .
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" -server "$out/ssrq-server" -commit "$commit" \
	-work "$out/work" -results "$out/results" "$@"
