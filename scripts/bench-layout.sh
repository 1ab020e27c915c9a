#!/usr/bin/env bash
# Builds the benchmark binary exactly as bench/run.sh does and prints where
# the linker placed the machine-speed probe's kernel, the evaluation path's
# two hottest kernels and the fleet path's hot functions: each symbol's
# address and that address mod 64.
# Any change to linked code can shift them, and a shift of the probe from
# 32 to 0 mod 64 changes its timing and with it every metric the benchmark
# scales to reference machine speed (see ROADMAP.md item 1).
#
#   bash scripts/bench-layout.sh            # this tree's layout
#   bash scripts/bench-layout.sh <base-rev> # compare against a revision
#
# With a revision, it also extracts that revision's tree with git archive
# under .bench_build/base, builds its bench the same way, prints both
# layouts, then every text symbol whose address or size differs between
# the two binaries, and ends with one summary line: the probe's address mod
# 64 in each binary, and how many text symbols of unchanged size moved by
# other than a multiple of 64 bytes.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/go/tmp"
rev=""
if [ -n "${1:-}" ]; then
	rev="$(git rev-parse --verify "$1^{commit}")"
fi

export GOCACHE="$out/go/cache" GOPATH="$out/go/path" GOMODCACHE="$out/go/path/pkg/mod" \
	GOTMPDIR="$out/go/tmp" TMPDIR="$out/go/tmp" \
	XDG_CONFIG_HOME="$out/go/config" XDG_CACHE_HOME="$out/go/cache-home" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0

# layout prints the addresses of the probe, the eval kernels and the fleet's
# hot path (TDE's FFT branch and the monitor's window step) in binary $1.
layout() {
	local syms sym addr
	syms="$(go tool nm -n "$1")"
	for sym in 'main.(*machineProbe).loop' 'nsync/internal/fft.radix2' 'nsync/internal/tde.directDotsInto' \
		'nsync/internal/tde.crossDotsInto' 'nsync/internal/tde.pearsonInto' 'nsync/internal/core.(*Monitor).step'; do
		addr="$(awk -v s="$sym" '$2 == "T" && $3 == s { print $1 }' <<<"$syms")"
		if [ -z "$addr" ]; then
			# A function the compiler inlined into every caller has no symbol.
			printf '%-40s (no symbol: inlined)\n' "$sym"
			continue
		fi
		printf '%-40s 0x%x  %2d mod 64\n' "$sym" "0x$addr" "$((0x$addr % 64))"
	done
}

# textsyms lists binary $1's text symbols in address order as
# "name#k<TAB>address size", where k numbers the repeats of a name so that
# duplicates pair up in order. Names may contain spaces.
textsyms() {
	go tool nm -n -size "$1" | awk '$3 == "T" || $3 == "t" {
		name = $0
		sub(/^ *[0-9a-f]+ +[0-9]+ [Tt] /, "", name)
		printf "%s#%d\t0x%s %d\n", name, seen[name]++, $1, $2
	}'
}

(cd bench && go build -o "$out/nsyncbench" .)
if [ -z "$rev" ]; then
	layout "$out/nsyncbench"
	exit 0
fi

rm -rf "$out/base"
mkdir -p "$out/base"
git archive "$rev" | tar -x -C "$out/base"
(cd "$out/base/bench" && go build -o "$out/nsyncbench-base" .)

echo "== base ${rev:0:12}"
layout "$out/nsyncbench-base"
echo "== this tree"
layout "$out/nsyncbench"
echo "== text symbols whose address or size differs (base -> this tree)"
diffs="$(awk -F'\t' '
	FNR == 1 { f++ }
	f == 1 { base[$1] = $2; next }
	{
		key = $1
		sub(/#[0-9]+$/, "", key)
		if (!($1 in base)) print key "  - -> " $2
		else if (base[$1] != $2) print key "  " base[$1] " -> " $2
		delete base[$1]
	}
	END {
		for (k in base) {
			key = k
			sub(/#[0-9]+$/, "", key)
			print key "  " base[k] " -> -"
		}
	}
' <(textsyms "$out/nsyncbench-base") <(textsyms "$out/nsyncbench"))"
printf '%s\n' "$diffs"

# A line ends "0xaddr size -> 0xaddr size"; count the symbols whose size
# held and whose address moved off its residue mod 64.
moved=0
while read -ra f; do
	n=${#f[@]}
	if ((n >= 5)) && [[ ${f[n-5]} == 0x* && ${f[n-2]} == 0x* && ${f[n-4]} == "${f[n-1]}" ]] &&
		(((f[n-2] - f[n-5]) % 64 != 0)); then
		moved=$((moved + 1))
	fi
done <<<"$diffs"
probe() {
	local addr
	addr="$(go tool nm "$1" | awk '$2 == "T" && $3 == "main.(*machineProbe).loop" { print $1 }')"
	if [ -z "$addr" ]; then
		echo "(inlined)"
		return
	fi
	echo "$((0x$addr % 64))"
}
echo "== summary: probe $(probe "$out/nsyncbench-base") mod 64 at base, $(probe "$out/nsyncbench") mod 64 here;" \
	"$moved text symbols of unchanged size moved off their address mod 64"
