#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. BENCHMARK.json names
# this script as the command; `go run ./benchmark` does the same for a person
# at a prompt. Build outputs and Go's caches stay under .bench_build/, so
# nothing is read or written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
# HOME too: the go command keeps counters and would keep a module cache there.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
# With a fresh config dir the go command starts a detached telemetry process
# (own session, reparented to init) that outlives it by a second or two, also
# when the build fails. The mode file is the only switch the command honours
# (GOTELEMETRY in the environment is read-only), so write it before any go runs.
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/nbschema-benchmark" ./benchmark
# Not exec: the script stays the parent, so it returns only when the program
# has ended. The program starts no process of its own.
"$build/nbschema-benchmark" "$@"
