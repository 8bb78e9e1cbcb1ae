#!/usr/bin/env bash
# Builds the benchmark with the PGO profile pmemspec-bench ships, then
# runs it with the given arguments. Every file the build writes (binary,
# Go build cache, temporary files) stays under .bench_build in the
# repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -pgo="$root/cmd/pmemspec-bench/default.pgo" -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
