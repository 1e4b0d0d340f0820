package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// runTSV drives the CLI in-process and returns the flow TSV it wrote.
func runTSV(t *testing.T, args ...string) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "flows.tsv")
	if err := run(append(args, "-flows", out), io.Discard); err != nil {
		t.Fatalf("abmsim %v: %v", args, err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatalf("abmsim %v produced an empty trace", args)
	}
	return data
}

// TestScenarioFlagEquivalence proves the two front doors agree: a flag
// invocation and the scenario file it resolves to emit byte-identical
// flow TSVs, so committing a -save-scenario spec loses nothing.
func TestScenarioFlagEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	// 6ms is the shortest run where DT and ABM visibly diverge at this
	// load, which keeps the override check below non-vacuous.
	flags := []string{
		"-bm", "ABM", "-cc", "cubic", "-load", "0.6", "-request", "0.5",
		"-scale", "small", "-seed", "42", "-duration", "6ms",
	}

	dir := t.TempDir()
	resolved := filepath.Join(dir, "resolved.json")
	if err := run(append(flags, "-save-scenario", resolved), io.Discard); err != nil {
		t.Fatal(err)
	}

	fromFlags := runTSV(t, flags...)
	fromFile := runTSV(t, "-scenario", resolved)
	if !bytes.Equal(fromFlags, fromFile) {
		t.Fatal("flag invocation and -scenario run emit different flow TSVs")
	}

	// Overrides compose: a sparse spec plus an explicit -bm must match
	// the equivalent all-flags run, and differ from the base scheme.
	// (A sparse file, not the resolved one: resolution pinned ABM's
	// 1/8 headroom explicitly, and an explicit value must survive a
	// scheme override — that is the point of the resolved form.)
	sparse := filepath.Join(dir, "sparse.json")
	spec := `{
		"seed": 42, "duration": "6ms",
		"fabric": {"spines": 2, "leaves": 2, "hosts_per_leaf": 8},
		"switch": {"bm": "ABM"},
		"workload": {"load": 0.6, "cc": "cubic", "incast": {"request_frac": 0.5}}
	}`
	if err := os.WriteFile(sparse, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromFlags, runTSV(t, "-scenario", sparse)) {
		t.Fatal("hand-written sparse scenario differs from the flag run")
	}
	overridden := runTSV(t, "-scenario", sparse, "-bm", "DT")
	dtFlags := append([]string{}, flags...)
	dtFlags[1] = "DT"
	if !bytes.Equal(overridden, runTSV(t, dtFlags...)) {
		t.Fatal("-scenario with -bm override differs from the all-flags run")
	}
	if bytes.Equal(overridden, fromFile) {
		t.Fatal("-bm override had no effect on the loaded scenario")
	}
}

// TestSaveScenarioIsResolved: the spec -save-scenario writes is fully
// explicit and survives a reload unchanged.
func TestSaveScenarioIsResolved(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "first.json")
	if err := run([]string{"-bm", "ABM", "-seed", "7", "-save-scenario", first}, io.Discard); err != nil {
		t.Fatal(err)
	}
	second := filepath.Join(dir, "second.json")
	if err := run([]string{"-scenario", first, "-save-scenario", second}, io.Discard); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("re-resolving a saved scenario changed it:\n%s\nvs\n%s", a, b)
	}
}
