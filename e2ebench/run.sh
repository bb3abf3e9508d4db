#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload linkbench --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind (binary, Go build cache, traces) goes
# under .bench_build/ in the working directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep the toolchain's caches, temporary files and config writes inside the
# working directory, and never let it reach for the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
