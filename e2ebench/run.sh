#!/usr/bin/env bash
# Builds the end-to-end benchmark from this source tree and runs it.
# Run from the repository root; every argument passes through, e.g.
#   bash e2ebench/run.sh --workload fir-sweep --seed 1 --seconds 20 --trace 0
# Build output, the Go build cache and the served-mix store all live under
# .bench_build/ in the repository root, so nothing is written elsewhere.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
	GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" "$@"
