package sweepd

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"abm/internal/obs/hist"
	"abm/internal/obs/prom"
	"abm/internal/runner"
)

// histPlan builds jobs whose results carry histogram snapshots, the way
// a real scenario run with hists enabled does: a seed-derived slowdown
// distribution per job, so every shipped bundle is distinguishable.
func histPlan(name string, jobs int) *runner.Plan {
	plan := &runner.Plan{Name: name, Seed: 7}
	for i := 0; i < jobs; i++ {
		group := fmt.Sprintf("g%d", i%2)
		plan.Add(runner.Spec{
			ID:         fmt.Sprintf("%s/%04d-%s", name, i, group),
			Experiment: name,
			Group:      group,
			Run: func(ctx context.Context, seed int64) (runner.Result, error) {
				var h hist.Histogram
				for v := int64(1); v <= 10; v++ {
					h.Record(1000 + (seed%97)*v)
				}
				return runner.Result{
					Events:   uint64(seed),
					Counters: map[string]int64{"model/admitted_pkts": seed % 13},
					Hists:    map[string]hist.Snapshot{"fct_slowdown_websearch": h.Snapshot()},
				}, nil
			},
		})
	}
	return plan
}

// TestTelemetryBundleRoundTrip is the fleet-shipping contract: a remote worker
// bundles each successful job's counters + histograms, the coordinator
// persists the bundle beside the record log, the file decodes back to
// the worker's state, and the merged histograms surface as the group
// slowdown summary in Status.
func TestTelemetryBundleRoundTrip(t *testing.T) {
	store := NewStore(testLog(t))
	store.TelemetryDir = t.TempDir()
	plan := histPlan("tele", 6)
	c, err := NewCoordinator(Config{Plan: plan, TableConfig: runner.TableConfig{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	runRemote(t, c, 2, 1)

	recs := c.Table().Records()
	if len(recs) != 6 {
		t.Fatalf("got %d records, want 6", len(recs))
	}
	for _, rec := range recs {
		if !rec.OK() {
			t.Fatalf("job %s failed: %s", rec.ID, rec.Error)
		}
		b, err := ReadTelemetry(store.TelemetryDir, rec.ID)
		if err != nil {
			t.Fatalf("bundle for %s: %v", rec.ID, err)
		}
		if b.JobID != rec.ID {
			t.Errorf("bundle for %s carries job ID %q", rec.ID, b.JobID)
		}
		if !reflect.DeepEqual(b.Hists, rec.Result.Hists) {
			t.Errorf("bundle hists for %s diverge from the record", rec.ID)
		}
		if !reflect.DeepEqual(b.Counters, rec.Result.Counters) {
			t.Errorf("bundle counters for %s diverge from the record", rec.ID)
		}
	}

	st := c.Status()
	for _, g := range st.Groups {
		s := g.Slowdown
		if s == nil || s.Count == 0 {
			t.Fatalf("group %s has no merged slowdown summary", g.Group)
		}
		if s.P50 <= 0 || s.P99 < s.P50 || s.P999 < s.P99 {
			t.Errorf("group %s slowdown quantiles inconsistent: %+v", g.Group, s)
		}
	}

	var pw prom.Writer
	c.WriteMetrics(&pw)
	text := string(pw.Bytes())
	for _, fam := range []string{
		"abm_sweepd_jobs", "abm_sweepd_leases_outstanding",
		"abm_sweepd_worker_jobs_done_total", "abm_sweepd_batch_pending",
	} {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("coordinator /metrics missing family %s", fam)
		}
	}
}

// TestSlowdownOfMergesAcrossRecords pins the offline summary math: two
// records' class histograms merge by bucket addition before the
// quantiles are read, and failed records are excluded.
func TestSlowdownOfMergesAcrossRecords(t *testing.T) {
	var a, b hist.Histogram
	a.Record(1000) // slowdown 1.0 in milli units
	a.Record(2000)
	b.Record(8000)
	recs := []runner.Record{
		{Status: runner.StatusOK, Result: &runner.Result{
			Hists: map[string]hist.Snapshot{"fct_slowdown_websearch": a.Snapshot()}}},
		{Status: runner.StatusOK, Result: &runner.Result{
			Hists: map[string]hist.Snapshot{"fct_slowdown_incast": b.Snapshot()}}},
		{Status: runner.StatusFailed, Result: &runner.Result{
			Hists: map[string]hist.Snapshot{"fct_slowdown_long": b.Snapshot()}}},
	}
	s := SlowdownOf(recs)
	if s == nil || s.Count != 3 {
		t.Fatalf("SlowdownOf = %+v, want 3 merged flows", s)
	}
	// Rank 2 of 3 → the bucket holding 2000; rank ceil(.99*3)=3 → 8000's.
	if s.P50 < 2.0 || s.P50 > 2.56 {
		t.Errorf("P50 = %v, want the 2.0-slowdown bucket edge", s.P50)
	}
	if s.P99 < 8.0 || s.P99 > 10.3 {
		t.Errorf("P99 = %v, want the 8.0-slowdown bucket edge", s.P99)
	}
	if SlowdownOf(recs[2:]) != nil {
		t.Error("failed-only records must yield no summary")
	}
}
