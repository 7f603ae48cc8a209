#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind — binary, Go build cache, temp
# files — stays in bench/out/build, beside what the runs leave behind.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/bench/out/build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# With telemetry on or local, the go command starts a detached child of
# itself that outlives it; every process this script starts must have
# ended when it returns.
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go build -o "$build/facility-bench" ./bench
exec "$build/facility-bench" "$@"
