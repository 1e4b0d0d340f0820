package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"abm/internal/runner"
	"abm/internal/units"
)

// baseFile saves a small-preset scenario (2ms, load 0.3, incast 25%,
// cubic) for grids to start from and returns its path.
func baseFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.json")
	if err := cell(preset(t, "small", 0, 2*units.Millisecond), "", 0.3, "cubic", 0.25).Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGridExpansion(t *testing.T) {
	g := Grid{
		Name: "t", Scenario: baseFile(t), Reps: 3, TimeoutSec: 7,
		Vary: []PathAxis{
			{Path: "switch.bm", Values: []string{"DT", "ABM"}},
			{Path: "workload.cc", Values: []string{"cubic", "dctcp"}},
			{Path: "workload.load", Values: []string{"0.2", "0.4"}},
		},
	}
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Specs) != 2*2*2*3 {
		t.Fatalf("expanded %d jobs, want 24", len(plan.Specs))
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if first := plan.Specs[0].ID; first != "t/0000-switch.bm=DT,workload.cc=cubic,workload.load=0.2,rep=0" {
		t.Fatalf("first job ID %q", first)
	}
	groups := map[string]int{}
	for i, s := range plan.Specs {
		if s.Timeout != 7*time.Second {
			t.Fatalf("timeout not propagated: %v", s.Timeout)
		}
		groups[s.Group]++
		if s.Seed != 0 {
			t.Fatalf("grid jobs must derive seeds, spec %d has %d", i, s.Seed)
		}
	}
	if len(groups) != 8 {
		t.Fatalf("groups = %d, want 8", len(groups))
	}
	for gname, n := range groups {
		if n != 3 {
			t.Fatalf("group %s has %d reps, want 3", gname, n)
		}
	}
	// No axes is one job per rep; a grid without a base scenario, an
	// unknown field path and an empty axis are rejected.
	if plan, err := (Grid{Scenario: g.Scenario}).Plan(); err != nil || len(plan.Specs) != 1 {
		t.Fatalf("axis-free grid: %v", err)
	}
	for _, bad := range []Grid{
		{},
		{Scenario: g.Scenario, Vary: []PathAxis{{Path: "switch.bogus", Values: []string{"1"}}}},
		{Scenario: g.Scenario, Vary: []PathAxis{{Path: "switch.bm"}}},
	} {
		if _, err := bad.Plan(); err == nil {
			t.Errorf("grid %+v accepted", bad)
		}
	}
}

// tinyGrid is a real-simulation grid small enough for tests: 2 schemes
// x 2 replications of a 2ms small-fabric cell.
func tinyGrid(t *testing.T) Grid {
	return Grid{
		Name: "tiny", Seed: 11, Reps: 2, Scenario: baseFile(t),
		Vary: []PathAxis{{Path: "switch.bm", Values: []string{"DT", "ABM"}}},
	}
}

// TestGridDeterminismAcrossWorkers runs a real multi-seed grid at 1 and
// 4 workers and requires byte-identical aggregated output — the
// acceptance property of the runner subsystem on the actual simulator
// (the pure-runner version at 1/4/16 workers lives in
// internal/runner/determinism_test.go).
func TestGridDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	grid := tinyGrid(t)
	var golden []byte
	for _, workers := range []int{1, 4} {
		plan, err := grid.Plan()
		if err != nil {
			t.Fatal(err)
		}
		recs, err := (&runner.Pool{Workers: workers}).Run(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(runner.Failed(recs)); n != 0 {
			t.Fatalf("%d failed jobs: %+v", n, runner.Failed(recs))
		}
		out, err := json.MarshalIndent(runner.Aggregate(recs), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = out
			continue
		}
		if string(out) != string(golden) {
			t.Fatalf("worker count changed simulation aggregate:\n%s\nvs\n%s", out, golden)
		}
	}
	// Replications must actually differ (distinct derived seeds), or
	// the confidence intervals are fiction.
	var groups []runner.Group
	if err := json.Unmarshal(golden, &groups); err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		if g.N != 2 {
			t.Fatalf("group %s aggregated %d reps", g.Group, g.N)
		}
		if len(g.Seeds) != 2 || g.Seeds[0] == g.Seeds[1] {
			t.Fatalf("group %s seeds: %v", g.Group, g.Seeds)
		}
	}
}

// TestFigureResumeFromLog runs a figure into a record log, then runs
// its plan again on the same log: every cell must be served from the
// log, and the table rendered from the served records — per-priority
// extras included — must be byte-identical to the fresh one.
func TestFigureResumeFromLog(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	figs := Figures{IDs: []string{"fig8"}, Base: preset(t, "small", 3, 2*units.Millisecond)}
	dir := t.TempDir()
	var tsv [2][]byte
	for i := range tsv {
		plan, err := figs.Plan()
		if err != nil {
			t.Fatal(err)
		}
		st, err := runner.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := (&runner.Pool{Store: st}).Run(context.Background(), plan)
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.Cached != (i == 1) || len(rec.Result.Extra) != 3 {
				t.Fatalf("run %d: cached=%v extras=%v", i, rec.Cached, rec.Result.Extra)
			}
		}
		if err := figs.WriteTSVs(dir, recs); err != nil {
			t.Fatal(err)
		}
		if tsv[i], err = os.ReadFile(filepath.Join(dir, "fig8.tsv")); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(tsv[0], tsv[1]) {
		t.Fatalf("table rendered from the log differs:\n%s\nvs\n%s", tsv[0], tsv[1])
	}
}

// TestFigureCellFailure checks that a failing cell surfaces its job ID
// and error, fails only its own figure's table, and does not take the
// process down. (Unknown names used to panic inside the simulator;
// scenario resolution now rejects them as an ordinary error.)
func TestFigureCellFailure(t *testing.T) {
	base := preset(t, "small", 1, units.Millisecond)
	base.Workload.Background = "nonsense"
	figs := Figures{IDs: []string{"fig12", "fig4"}, Base: base}
	plan, err := figs.Plan()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := (&runner.Pool{}).Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	err = figs.WriteTSVs(dir, recs)
	if err == nil || !strings.Contains(err.Error(), "fig12/000-update=1rtt") || !strings.Contains(err.Error(), "nonsense") {
		t.Fatalf("error lacks job identity: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig12.tsv")); err == nil {
		t.Error("fig12.tsv written despite failed cells")
	}
	if _, err := os.Stat(filepath.Join(dir, "fig4.tsv")); err != nil {
		t.Errorf("fig4.tsv not written: %v", err)
	}
}

// TestExpandMatchesPlan: Plan is exactly "load the file, then Expand".
func TestExpandMatchesPlan(t *testing.T) {
	grid := tinyGrid(t)
	fromFile, err := grid.Plan()
	if err != nil {
		t.Fatal(err)
	}
	base := cell(preset(t, "small", 0, 2*units.Millisecond), "", 0.3, "cubic", 0.25)
	inMemory, err := grid.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromFile.Specs) != len(inMemory.Specs) {
		t.Fatalf("%d vs %d jobs", len(fromFile.Specs), len(inMemory.Specs))
	}
	for i := range fromFile.Specs {
		a, b := fromFile.Specs[i], inMemory.Specs[i]
		if a.ID != b.ID || !reflect.DeepEqual(a.Config, b.Config) {
			t.Fatalf("job %d: %s %+v vs %s %+v", i, a.ID, a.Config, b.ID, b.Config)
		}
	}
}
