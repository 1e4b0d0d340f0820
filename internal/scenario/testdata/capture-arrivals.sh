#!/bin/sh
# Regenerates arrivals.golden: for each spec below, the SHA-256 of the
# planning-time columns of its flow trace (id, class, prio, size, start,
# ideal — `cut -f1-5,7` of `abmsim -flows`) from a serial run shortened
# to the listed duration. The columns are fixed when a flow is planned,
# so they hash the arrival stream alone: TestArrivalsGolden rebuilds them
# on both engines. The specs are read from the working tree; abmsim is
# built from the given commit (default: the last one with the separate
# live and pre-generated workload paths). Run from anywhere inside the
# repository:
#
#	sh internal/scenario/testdata/capture-arrivals.sh [commit]
set -eu
rev=${1:-1dbc94f}
here=$(cd "$(dirname "$0")" && pwd)
root=$(git -C "$here" rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$tmp"
(cd "$tmp" && go build -o "$tmp/abmsim" ./cmd/abmsim)
{
	echo "# spec (repository-relative), traffic duration, SHA-256 of cut -f1-5,7 of the serial flow trace"
	echo "# captured at $rev by capture-arrivals.sh"
	for spec in examples/isolation/scenario.json internal/scenario/testdata/random-prio.json \
		scenarios/tofino-4q.json scenarios/fattree-k4.json; do
		dur=5ms
		"$tmp/abmsim" -scenario "$root/$spec" -duration $dur -shards 0 -flows "$tmp/flows.tsv" >/dev/null
		printf '%s\t%s\t%s\n' "$spec" $dur "$(cut -f1-5,7 "$tmp/flows.tsv" | sha256sum | cut -d' ' -f1)"
	done
} >"$here/arrivals.golden"
