#!/usr/bin/env bash
# Builds the benchmark binary exactly as bench/run.sh does and prints where
# the linker placed the machine-speed probe's kernel and the evaluation
# path's two hottest kernels: each symbol's address and that address mod 64.
# Any change to linked code can shift them, and a shift of the probe from
# 32 to 0 mod 64 changes its timing and with it every metric the benchmark
# scales to reference machine speed (see ROADMAP.md item 1). Run it at two
# trees to compare their layouts:
#
#   bash scripts/bench-layout.sh
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
syms="$(go tool nm -n "$out/nsyncbench")"
for sym in 'main.(*machineProbe).loop' 'nsync/internal/fft.radix2' 'nsync/internal/tde.directDotsInto'; do
	addr="$(awk -v s="$sym" '$2 == "T" && $3 == s { print $1 }' <<<"$syms")"
	if [ -z "$addr" ]; then
		# A function the compiler inlined into every caller has no symbol.
		printf '%-36s (no symbol: inlined)\n' "$sym"
		continue
	fi
	printf '%-36s 0x%x  %2d mod 64\n' "$sym" "0x$addr" "$((0x$addr % 64))"
done
