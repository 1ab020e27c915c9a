#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through (see bench/README.md). Run it from anywhere inside a checkout:
#
#   bash bench/run.sh --workload fleet_durable --seed 1000 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the journal of the fleet_durable
# workload all live under .bench_build/ at the root of the checkout, so the
# benchmark writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/go/tmp"

export GOCACHE="$out/go/cache" GOPATH="$out/go/path" GOMODCACHE="$out/go/path/pkg/mod" \
	GOTMPDIR="$out/go/tmp" TMPDIR="$out/go/tmp" \
	XDG_CONFIG_HOME="$out/go/config" XDG_CACHE_HOME="$out/go/cache-home" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd bench && go build -o "$out/nsyncbench" .)
exec "$out/nsyncbench" "$@"
