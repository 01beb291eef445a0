#!/usr/bin/env bash
# Builds banger and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload predict --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --steady 10 --seconds 10
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/banger" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/banger and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

go build -o "$out/banger" ./cmd/banger
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --banger "$out/banger" --work "$out" "$@"
