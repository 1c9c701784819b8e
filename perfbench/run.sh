#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
# Usage: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. The build cache, the binary and span
# dumps go under .bench_build/ in that root; the Go tool's home and
# config directories are pointed there too, so nothing is written
# outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-home"
export HOME="$out/go-home" XDG_CONFIG_HOME="$out/go-home/.config" \
	GOPATH="$out/go-home/go" GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --out "$out/perfbench-out" "$@"
