#!/usr/bin/env bash
# Builds the WARP benchmark from source and runs it. Run from the root of
# the repository:
#
#   bash perfbench/run.sh --workload wiki-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary and
# the durable workload's data directories.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOPATH="$out/home/go" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --data "$out" "$@"
