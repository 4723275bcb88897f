#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given flags.
# Run it from the repository root, e.g.
#
#   bash perfbench/run.sh --workload kernel --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the Go tool's own state and temporary
# files all stay in .bench_build under the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
