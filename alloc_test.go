package abm

// Allocation budgets for whole runs. TestSteadyStateZeroAlloc (in
// perf_test.go) pins the per-packet hot path at zero; the tests here
// pin what a whole cell allocates — fabric build, flow setup,
// telemetry, summary — so a per-flow or per-window allocation that
// creeps in fails `go test ./...` instead of surfacing only as
// alloc_mb in the benchmark driver.

import (
	"runtime"
	"testing"

	"abm/internal/scenario"
	"abm/internal/units"
)

// figureCell is a figure cell at seed 42: the scale preset with the
// scheme, the background load and its CC, and the incast request size
// (a fraction of the buffer) set.
func figureCell(tb testing.TB, scale, bmName string, load float64, ccName string, request float64) scenario.Scenario {
	tb.Helper()
	sc, err := scenario.Preset(scale)
	if err != nil {
		tb.Fatal(err)
	}
	sc.Seed = 42
	sc.Switch.BM = bmName
	sc.Workload.Load = load
	sc.Workload.CC = ccName
	sc.Workload.Incast.RequestFrac = request
	return sc
}

// allocsForCell runs the cell a few times, as testing.AllocsPerRun
// does (one warm-up run, GOMAXPROCS 1), and returns the mean
// allocations and bytes allocated per run (setup + simulation; the
// cell is small enough that both matter) and the last run's result, so
// callers can check the run did the work the budget assumes.
func allocsForCell(t *testing.T, cell scenario.Scenario) (allocs, bytes float64, res scenario.Result) {
	t.Helper()
	const runs = 3
	run := func() {
		var err error
		if res, _, err = scenario.Run(cell); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	if res.Summary.Flows == 0 {
		t.Fatal("no flows simulated")
	}
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs, res
}

// TestParallelAllocParity pins the allocation overhead of mailbox-routed
// tier links against direct ones: a shards=1 run of the Fig 6 medium
// cell must allocate within 10% (plus a small constant for engine
// construction: workers, mailboxes, channels) of the shards=0 run of
// the same cell. This is the regression guard for per-window churn —
// reused mailbox buffers and by-value window requests mean steady-state
// windows allocate nothing, so the two stay within construction
// distance of each other.
func TestParallelAllocParity(t *testing.T) {
	cell := figureCell(t, "medium", "ABM", 0.4, "cubic", 0.3)
	cell.Duration = scenario.Duration(2 * units.Millisecond)
	serial, _, _ := allocsForCell(t, cell)
	sharded := cell
	sharded.Shards = 1
	parallel, _, _ := allocsForCell(t, sharded)

	limit := serial*1.10 + 500
	if parallel > limit {
		t.Errorf("shards=1 allocates %.0f/run vs serial %.0f/run (limit %.0f): per-window churn regressed",
			parallel, serial, limit)
	}
	t.Logf("serial %.0f allocs/run, shards=1 %.0f allocs/run", serial, parallel)
}

// tofino4q is the committed four-queue DWRR scenario cut to dur: a
// web-search-heavy cell whose bytes are mostly per-flow state.
func tofino4q(tb testing.TB, dur units.Time) scenario.Scenario {
	tb.Helper()
	sc, err := scenario.Load("scenarios/tofino-4q.json")
	if err != nil {
		tb.Fatal(err)
	}
	sc.Duration = scenario.Duration(dur)
	return sc
}

// hybridSteady is a steady long-flow permutation under the hybrid
// fluid/packet engine: four 50 MB Swift flows that the engine demotes
// to fluid and integrates in epochs.
func hybridSteady() scenario.Scenario {
	return scenario.Scenario{
		Seed:     42,
		Duration: scenario.Duration(25 * units.Millisecond),
		Fabric: scenario.Fabric{
			Spines: 2, Leaves: 2, HostsPerLeaf: 4,
			LinkGbps: 10, LinkDelay: scenario.Duration(10 * units.Microsecond),
		},
		Buffer: scenario.Buffer{KBPerPortPerGbps: 9.6, QueuesPerPort: 1},
		Switch: scenario.Switch{BM: "ABM"},
		Workload: scenario.Workload{
			CC: "swift",
			LongFlows: scenario.LongFlows{
				FlowKB: 50000, Stride: 4, Count: 4,
				Stagger: scenario.Duration(units.Microsecond),
			},
		},
		Hybrid: scenario.Hybrid{Enabled: true},
	}
}

// TestAllocBudgets pins the allocations and the bytes allocated per run
// of the Fig 6 incast cell at 8 ms (small fabric, DT and ABM; medium
// fabric, ABM at shards 0 and at 1, 2 and 4 shards), of the hybrid
// steady-state cell and of the four-queue scenario at 50 ms, whose
// 602 web-search and incast flows make per-flow state most of what
// it allocates. measured and measuredKB are what this test read
// when the budgets were set (go1.24, linux/amd64) and each budget is
// 1.10 × its figure: the counts repeat to within a couple of
// allocations run to run, so the slack only absorbs toolchain
// differences. An allocation budget that trips means something new
// allocates per flow, per window or per packet; a byte budget that
// trips means something grows (a queue or list that allocates as it
// lengthens, a buffer sized up). A change that lowers a figure should
// lower its measured value with it, so the gate stays tight.
func TestAllocBudgets(t *testing.T) {
	fig6 := func(scale, bmName string, shards int) scenario.Scenario {
		sc := figureCell(t, scale, bmName, 0.4, "cubic", 0.3)
		sc.Duration = scenario.Duration(8 * units.Millisecond)
		sc.Shards = shards
		return sc
	}
	cases := []struct {
		name       string
		cell       scenario.Scenario
		measured   float64
		measuredKB float64
	}{
		{"fig6-small-DT", fig6("small", "DT", 0), 1678, 324},
		{"fig6-small-ABM", fig6("small", "ABM", 0), 1647, 322},
		{"fig6-medium-serial", fig6("medium", "ABM", 0), 5021, 813},
		{"fig6-medium-shards1", fig6("medium", "ABM", 1), 5215, 866},
		{"fig6-medium-shards2", fig6("medium", "ABM", 2), 5586, 973},
		{"fig6-medium-shards4", fig6("medium", "ABM", 4), 6042, 1073},
		{"hybrid-steady", hybridSteady(), 833, 192},
		{"tofino-4q-50ms", tofino4q(t, 50*units.Millisecond), 7275, 1168},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, bytes, res := allocsForCell(t, tc.cell)
			if tc.cell.Hybrid.Enabled && (res.Hybrid == nil || res.Hybrid.Demotions == 0) {
				t.Fatal("hybrid engine never demoted a flow")
			}
			budget := 1.10 * tc.measured
			if got > budget {
				t.Errorf("%.0f allocs/run, budget %.0f (1.10 x %.0f)", got, budget, tc.measured)
			}
			kb, kbBudget := bytes/1024, 1.10*tc.measuredKB
			if kb > kbBudget {
				t.Errorf("%.0f KB/run, budget %.0f (1.10 x %.0f)", kb, kbBudget, tc.measuredKB)
			}
			t.Logf("%.0f allocs/run (budget %.0f), %.0f KB/run (budget %.0f)", got, budget, kb, kbBudget)
		})
	}
}
