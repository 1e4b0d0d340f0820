package abm

import (
	"testing"

	"abm/internal/scenario"
	"abm/internal/units"
)

// allocsForCell runs the cell a few times and returns the mean
// allocations per run (setup + simulation; the cell is small enough
// that both matter).
func allocsForCell(t *testing.T, cell scenario.Scenario) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		if _, _, err := scenario.Run(cell); err != nil {
			t.Fatal(err)
		}
	})
}

// TestParallelAllocParity pins the sharded engine's allocation overhead
// against the serial loop: a shards=1 run of the Fig 6 parallel
// benchmark cell must allocate within 10% (plus a small constant for
// engine construction: workers, mailboxes, channels) of the serial run
// of the same cell. This is the regression guard for per-window churn —
// reused mailbox buffers and by-value window requests mean steady-state
// windows allocate nothing, so the two engines stay within construction
// distance of each other.
func TestParallelAllocParity(t *testing.T) {
	cell := figureCell(t, "medium", "ABM", 0.4, "cubic", 0.3)
	cell.Duration = scenario.Duration(2 * units.Millisecond)
	serial := allocsForCell(t, cell)
	sharded := cell
	sharded.Shards = 1
	parallel := allocsForCell(t, sharded)

	limit := serial*1.10 + 500
	if parallel > limit {
		t.Errorf("shards=1 allocates %.0f/run vs serial %.0f/run (limit %.0f): per-window churn regressed",
			parallel, serial, limit)
	}
	t.Logf("serial %.0f allocs/run, shards=1 %.0f allocs/run", serial, parallel)
}
