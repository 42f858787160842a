#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload campaign-demo27 --seed 1 --seconds 25 --trace 0
#
# Every build product, cache and trace stays under .bench_build/.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
