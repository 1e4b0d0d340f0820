#!/bin/sh
# Regenerates counters.golden: for every committed scenarios/*.json, the
# model/ counter totals of a run shortened to 2ms, on the serial engine
# (shards 0) and on two shards, as `abmsim -counters` prints them. A
# spec the sharded engine rejects (the hybrid engine is serial-only) is
# captured serial only. The
# model/ block is a pure function of the simulated model, so
# TestCountersGolden rebuilds it exactly. The specs are read from the
# working tree; abmsim is built from the given commit (default: the last
# one whose components and the telemetry registry each kept their own
# copy of every count). Run from anywhere inside the repository:
#
#	sh internal/scenario/testdata/capture-counters.sh [commit]
set -eu
rev=${1:-9ad0c94}
here=$(cd "$(dirname "$0")" && pwd)
root=$(git -C "$here" rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$tmp"
(cd "$tmp" && go build -o "$tmp/abmsim" ./cmd/abmsim)
{
	echo "# spec (repository-relative), shards, counter, value: model/ totals of a 2ms run"
	echo "# captured at $rev by capture-counters.sh"
	for spec in $(cd "$root" && ls scenarios/*.json); do
		for shards in 0 2; do
			rm -f "$tmp/counters.tsv"
			if [ $shards -gt 0 ] && grep -q '"hybrid"' "$root/$spec"; then
				continue
			fi
			"$tmp/abmsim" -scenario "$root/$spec" -duration 2ms -shards $shards \
				-counters "$tmp/counters.tsv" >/dev/null
			grep '^model/' "$tmp/counters.tsv" | sed "s|^|$spec	$shards	|"
		done
	done
} >"$here/counters.golden"
