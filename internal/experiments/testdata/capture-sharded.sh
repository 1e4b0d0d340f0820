#!/bin/sh
# Regenerates sharded-output.golden: the output digest of the shortCells
# named in TestShardedOutputGolden, run at seed 42 on one shard (and, for
# the /serial rows, at shards 0) by the given commit (default: the last
# one whose shards-0 run kept the buffer sample and the link events on
# the calendar, whose executed-event counts the /serial rows record). It
# exports that tree to a temporary directory, copies in
# sharded_golden_test.go from the working tree, runs it in update mode
# and writes the golden next to this script.
# Run from anywhere inside the repository:
#
#	sh internal/experiments/testdata/capture-sharded.sh [commit]
set -eu
rev=${1:-581deb0}
here=$(cd "$(dirname "$0")" && pwd)
root=$(git -C "$here" rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$tmp"
cp "$here/../sharded_golden_test.go" "$tmp/internal/experiments/"
(cd "$tmp" && go test -count=1 -run '^TestShardedOutputGolden$' ./internal/experiments -update-sharded >/dev/null)
{
	cat "$tmp/internal/experiments/testdata/sharded-output.golden"
	echo "# captured at $rev by capture-sharded.sh"
} >"$here/sharded-output.golden"
