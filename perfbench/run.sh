#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the root of an hdr4me checkout. Build products and the Go build
# cache stay under .bench_build/ in that checkout.
set -euo pipefail
root=$(pwd)
if ! grep -qs '^module github.com/hdr4me/hdr4me$' "$root/go.mod"; then
	echo "perfbench: $root is not an hdr4me checkout (no go.mod for github.com/hdr4me/hdr4me)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
