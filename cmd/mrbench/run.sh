#!/usr/bin/env bash
# Builds mrbench from source into <checkout>/.bench_build and runs it.
# Everything the build and the run write (Go build cache, temp files,
# journals, host trees, trace dumps) stays under that directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(cd "$here/../.." && pwd)/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/mrbench" .
exec "$out/mrbench" -out "$out" "$@"
