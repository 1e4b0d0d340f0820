package sweepd

import (
	"path/filepath"
	"testing"

	"abm/internal/experiments"
	"abm/internal/runner"
)

// equivGrid is a real (tiny) simulation sweep at seed 42: the issue's
// acceptance bar is that single-process sweepd produces byte-identical
// aggregates to the classic pool.
func equivGrid() experiments.Grid {
	return experiments.Grid{
		Name:     "equiv",
		Seed:     42,
		Reps:     2,
		Scenario: filepath.Join("..", "..", "examples", "incast", "scenario.json"),
		Vary: []experiments.PathAxis{
			{Path: "switch.bm", Values: []string{"DT", "ABM"}},
			{Path: "workload.load", Values: []string{"0.4"}},
			{Path: "duration", Values: []string{"250us"}},
		},
	}
}

// TestSweepdMatchesPoolOnRealGrid runs the same grid through the
// in-process pool and through coordinator + remote HTTP workers backed
// by the durable record log, and demands byte-identical aggregate JSON
// and TSV output.
func TestSweepdMatchesPoolOnRealGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	grid := equivGrid()
	plan, err := grid.Plan()
	if err != nil {
		t.Fatal(err)
	}
	poolRecs, err := (&runner.Pool{Workers: 2}).Run(t.Context(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(runner.Failed(poolRecs)); n != 0 {
		t.Fatalf("%d pool jobs failed", n)
	}
	want := aggBytes(t, poolRecs)

	dir := t.TempDir()
	store, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(Config{Grid: &grid, TableConfig: runner.TableConfig{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	runRemote(t, c, 2, 1)
	if got := aggBytes(t, c.Table().Records()); got != want {
		t.Fatalf("sweepd aggregate differs from pool\nwant:\n%s\ngot:\n%s", want, got)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// The log replays to the same aggregate, in any process.
	log2, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	replayed, err := log2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if got := aggBytes(t, replayed); got != want {
		t.Fatalf("replayed aggregate differs from pool\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestRemoteWorkerScenarioGrid exercises the full remote path on the
// committed scenario spec: the worker rebuilds the plan from PlanInfo —
// including the scenario bytes shipped over HTTP — and the aggregate
// still matches the pool.
func TestRemoteWorkerScenarioGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	grid := experiments.Grid{
		Name:     "scen",
		Seed:     42,
		Reps:     1,
		Scenario: filepath.Join("..", "..", "scenarios", "oversub-2to1.json"),
		Vary: []experiments.PathAxis{
			{Path: "switch.bm", Values: []string{"DT", "ABM"}},
			{Path: "duration", Values: []string{"200us"}},
		},
	}
	plan, err := grid.Plan()
	if err != nil {
		t.Fatal(err)
	}
	poolRecs, err := (&runner.Pool{Workers: 2}).Run(t.Context(), plan)
	if err != nil {
		t.Fatal(err)
	}
	want := aggBytes(t, poolRecs)

	c, err := NewCoordinator(Config{Grid: &grid})
	if err != nil {
		t.Fatal(err)
	}
	runRemote(t, c, 2, 1)
	if got := aggBytes(t, c.Table().Records()); got != want {
		t.Fatalf("remote-worker aggregate differs from pool\nwant:\n%s\ngot:\n%s", want, got)
	}
}
