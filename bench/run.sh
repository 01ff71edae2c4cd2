#!/usr/bin/env bash
# Builds the benchmark and the mdxserve binary it drives, then runs one
# workload:
#
#   bash bench/run.sh --workload dense-long --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -selfcheck > bench/SELFCHECK.md
#
# Everything the build writes (binaries, Go's build cache and temporary
# files) stays under .bench_build/ at the root of the checkout; everything a
# run writes stays under bench/out/.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

(
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
	export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
	go build -C "$bench" -o "$build/bin/" ./cmd/mdxperf sr2201/cmd/mdxserve
) >&2

cd "$root"
exec "$build/bin/mdxperf" -mdxserve "$build/bin/mdxserve" -out "$bench/out" "$@"
