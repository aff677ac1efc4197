#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root; arguments pass through to the program
# (--workload, --seed, --seconds, --trace). Build outputs, the Go build
# cache and the span dumps all stay under the build directory,
# $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp" "$build/out"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd e2ebench && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --out "$build/out" "$@"
