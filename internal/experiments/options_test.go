package experiments

import (
	"strings"
	"testing"

	"abm/internal/metrics"
	"abm/internal/scenario"
	"abm/internal/units"
)

func TestSchedulerSelection(t *testing.T) {
	for _, sched := range []string{"rr", "dwrr", "strict", ""} {
		sc := cell(preset(t, "small", 1, 5*units.Millisecond), "DT", 0.2, "cubic", 0)
		sc.Buffer.QueuesPerPort = 2
		sc.Workload.RandomPrio = true
		sc.Switch.Scheduler = sched
		res, _, err := scenario.Run(sc)
		if err != nil {
			t.Fatalf("scheduler %q: %v", sched, err)
		}
		if res.Summary.Flows == 0 {
			t.Fatalf("scheduler %q: no flows", sched)
		}
	}
	sc := cell(preset(t, "small", 0, units.Millisecond), "DT", 0.2, "cubic", 0)
	sc.Switch.Scheduler = "fifo"
	if _, _, err := scenario.Run(sc); err == nil {
		t.Fatal("unknown scheduler must error")
	}
}

func TestWorkloadSelection(t *testing.T) {
	medianSize := func(wl string) units.ByteCount {
		sc := cell(preset(t, "small", 1, 10*units.Millisecond), "DT", 0.3, "cubic", 0)
		sc.Workload.Background = wl
		_, col, err := scenario.Run(sc)
		if err != nil {
			t.Fatalf("workload %q: %v", wl, err)
		}
		if len(col.Flows) == 0 {
			t.Fatalf("workload %q: no flows", wl)
		}
		sizes := make([]float64, len(col.Flows))
		for i, f := range col.Flows {
			sizes[i] = float64(f.Size)
		}
		return units.ByteCount(metrics.Percentile(sizes, 50))
	}
	ws := medianSize("websearch")
	dm := medianSize("datamining")
	// Data mining is far more skewed: its median flow is tiny compared
	// to web-search's even though its mean is larger.
	if dm >= ws {
		t.Fatalf("datamining median %v should be far below websearch %v", dm, ws)
	}
	sc := cell(preset(t, "small", 0, units.Millisecond), "DT", 0.2, "cubic", 0)
	sc.Workload.Background = "bogus"
	if _, _, err := scenario.Run(sc); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestAblationOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	out := renderFigure(t, "ablation", preset(t, "small", 1, 0))
	for _, want := range []string{"drain-rate estimator", "congestion detection",
		"headroom", "unscheduled alpha", "stats update interval"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

func TestStatsIntervalOverride(t *testing.T) {
	sc := cell(preset(t, "small", 1, 5*units.Millisecond), "ABM", 0.2, "cubic", 0.2)
	sc.Switch.StatsInterval = scenario.Duration(320 * units.Microsecond)
	if res := run(t, sc); res.Summary.Flows == 0 {
		t.Fatal("no flows")
	}
}

// Two identical cells must produce byte-identical summaries: the whole
// stack is deterministic.
func TestExperimentDeterminism(t *testing.T) {
	sc := cell(preset(t, "small", 123, 8*units.Millisecond), "ABM", 0.3, "cubic", 0.25)
	a, b := run(t, sc), run(t, sc)
	if a.Summary != b.Summary {
		t.Fatalf("summaries diverged:\n%+v\n%+v", a.Summary, b.Summary)
	}
	if a.Events != b.Events || a.Drops != b.Drops {
		t.Fatalf("event/drop counts diverged: %d/%d vs %d/%d",
			a.Events, a.Drops, b.Events, b.Drops)
	}
}
