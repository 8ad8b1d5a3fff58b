#!/usr/bin/env bash
# Builds servebench from the checkout this script sits in and runs it
# with the given arguments, e.g.
#
#   bash servebench/run.sh --workload warm --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache, the toolchain's scratch files and its
# configuration and telemetry directory stay under .bench_build/ at the
# root of the checkout. The build fails, and so does the script, unless
# the checkout also holds the ArachNet module the benchmark imports
# (../go.mod).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS=
go -C "$here" build -o "$build/servebench" .
exec "$build/servebench" "$@"
