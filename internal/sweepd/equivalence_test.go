package sweepd

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

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
// in-process pool and through coordinator + in-process workers backed
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
	log, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(log)
	c, err := NewCoordinator(Config{Grid: &grid, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, c, 2)
	if got := aggBytes(t, c.Records()); got != want {
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
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		// No Plan: the worker must fetch PlanInfo and rebuild it, which
		// is exactly what a worker on another machine does.
		w := &Worker{Dispatcher: NewClient(srv.URL), Name: fmt.Sprintf("remote%d", i)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := aggBytes(t, c.Records()); got != want {
		t.Fatalf("remote-worker aggregate differs from pool\nwant:\n%s\ngot:\n%s", want, got)
	}
}
