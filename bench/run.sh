#!/usr/bin/env bash
# Builds pathdumpbench from source inside the checkout and runs it with the
# arguments given (--workload W --seed N --seconds S --trace 0|1). Every file
# the build and the run leave behind stays under bench/out/, which carries
# its own .gitignore.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/bench/out"
mkdir -p "$out/tmp"
# The build cache, the compiler's temp files and the toolchain's telemetry
# counters (which go to the user's config directory) all stay in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
# With telemetry in its default "local" mode the go command forks a detached
# child to roll up its counter files, and that child outlives this script.
# Mode "off" starts no child and writes no counters.
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/pathdumpbench" ./bench/cmd/pathdumpbench 1>&2
exec "$out/pathdumpbench" "$@"
