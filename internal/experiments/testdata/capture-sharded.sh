#!/bin/sh
# Regenerates sharded-output.golden: the output digest of the shortCells
# named in TestShardedOutputGolden, run on the sharded engine at seed 42
# by the given commit (default: the last one that injected barrier
# crossings into the calendar through PushBatch). It exports that tree to
# a temporary directory, copies in sharded_golden_test.go from the working
# tree, runs it in update mode and writes the golden next to this script.
# Run from anywhere inside the repository:
#
#	sh internal/experiments/testdata/capture-sharded.sh [commit]
set -eu
rev=${1:-9037026}
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
