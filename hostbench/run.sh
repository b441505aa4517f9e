#!/usr/bin/env bash
# Builds hostbench from the sources of the checkout it sits in and runs it
# with the given arguments, for example:
#
#   bash hostbench/run.sh --workload csloop --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files and the binary stay in .bench_build/ at
# the checkout's root. Build output goes to standard error, so the last line
# of standard output is hostbench's JSON result.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
(
	cd "$here"
	env GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
		go build -buildvcs=false -o "$out/hostbench" .
) >&2
exec "$out/hostbench" "$@"
