#!/usr/bin/env bash
# Builds the benchmark from source and runs it; all arguments go to the
# benchmark (see main.go). Run it from the repository root:
#
#   bash perfbench/run.sh --workload oltp --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the toolchain's scratch and
# config files stay under .bench_build/ at the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
