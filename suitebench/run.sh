#!/usr/bin/env bash
# Builds the suite benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash suitebench/run.sh --workload craft-iter --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and every temporary file stay under
# .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/suitebench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "suitebench: run from the repository root (need go.mod and suitebench/go.mod)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# The go command keeps its settings and telemetry under the user config
# dir; point it into the build dir too.
XDG_CONFIG_HOME="$out/config" go -C suitebench build -o "$out/suitebench" .
exec "$out/suitebench" -root "$root" "$@"
