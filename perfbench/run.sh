#!/usr/bin/env bash
# Builds the benchmark and the pmserve daemon from the sources of the
# checkout it is started in, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload solve-narrow --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything it builds, generates and
# writes stays under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# The Go build cache, module path and user configuration (where the go
# command keeps its env file and telemetry) all live under .bench_build.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" . >&2
go build -o "$out/pmserve" ./cmd/pmserve >&2
exec "$out/perfbench" -bin "$out" "$@"
