#!/usr/bin/env bash
# Builds and runs the benchmark from any working directory. The Go build
# cache lives under .bench_build/ in the checkout, so a run writes nothing
# outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off
cd "$here"
exec go run . "$@"
