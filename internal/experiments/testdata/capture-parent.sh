#!/bin/sh
# Regenerates figure-scenarios.golden from the last commit whose figures
# still compiled experiments.Cell values to scenarios. It exports that
# tree to a temporary directory, applies capture-parent.patch (a hook in
# runCells that lists each figure's cells instead of running them, and a
# test that walks every simulated figure at small, medium and paper
# scale at seed 42), runs that test and writes the golden next to this
# script. Run from anywhere inside the repository:
#
#	sh internal/experiments/testdata/capture-parent.sh [commit]
set -eu
rev=${1:-c17b32a}
here=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
root=$(git -C "$here" rev-parse --show-toplevel)
git -C "$root" archive "$rev" | tar -x -C "$tmp"
cd "$tmp"
git apply "$here/capture-parent.patch"
CAPTURE_OUT="$tmp/golden" go test -count=1 -run TestCaptureFigureScenarios ./internal/experiments >/dev/null
{
	echo "# scale, job ID, seed, SHA-256 of the resolved scenario JSON (Scenario.Marshal)"
	echo "# captured at $rev by capture-parent.sh"
	cat "$tmp/golden"
} >"$here/figure-scenarios.golden"
