package sweepd

import (
	"sort"
	"strings"
	"time"

	"abm/internal/obs/hist"
	"abm/internal/obs/prom"
	"abm/internal/runner"
)

// slowdownPrefix selects the FCT-slowdown histograms (one per flow
// class) out of a record's exported histogram map.
const slowdownPrefix = "fct_slowdown_"

// SlowdownOf merges every FCT-slowdown histogram (all classes) across
// the given records' successful runs and condenses the result to tail
// percentiles. Returns nil when the records carry no slowdown samples
// — the caller renders nothing rather than a row of zeros.
func SlowdownOf(recs []runner.Record) *SlowdownSummary {
	var merged hist.Snapshot
	for _, rec := range recs {
		if !rec.OK() || rec.Result == nil {
			continue
		}
		for name, s := range rec.Result.Hists {
			if strings.HasPrefix(name, slowdownPrefix) {
				merged = merged.Merge(s)
			}
		}
	}
	if merged.Count == 0 {
		return nil
	}
	// Recorded values are milli-slowdowns; divide back to ratios.
	return &SlowdownSummary{
		Count: merged.Count,
		P50:   float64(merged.Quantile(0.50)) / 1000,
		P99:   float64(merged.Quantile(0.99)) / 1000,
		P999:  float64(merged.Quantile(0.999)) / 1000,
	}
}

// WriteMetrics renders the coordinator's fleet gauges in Prometheus
// text format: job states, leases outstanding, re-lease/give-up
// totals, and per-worker liveness and throughput.
func (c *Coordinator) WriteMetrics(w *prom.Writer) {
	ts := c.table.Status()
	c.mu.Lock()
	defer c.mu.Unlock()

	w.Family("abm_sweepd_jobs", "gauge", "Coordinator job table by state.")
	w.IntSample("abm_sweepd_jobs", []prom.Label{{Name: "state", Value: "pending"}}, int64(ts.Pending))
	w.IntSample("abm_sweepd_jobs", []prom.Label{{Name: "state", Value: "leased"}}, int64(ts.Leased))
	w.IntSample("abm_sweepd_jobs", []prom.Label{{Name: "state", Value: "done"}}, int64(ts.Done))
	w.IntSample("abm_sweepd_jobs", []prom.Label{{Name: "state", Value: "failed"}}, int64(ts.Failed))

	w.Family("abm_sweepd_leases_outstanding", "gauge", "Leases currently held by workers.")
	w.IntSample("abm_sweepd_leases_outstanding", nil, int64(ts.Leased))

	w.Family("abm_sweepd_lease_releases_total", "counter", "Leases that expired and were requeued.")
	w.IntSample("abm_sweepd_lease_releases_total", nil, ts.Releases)
	w.Family("abm_sweepd_lease_giveups_total", "counter", "Jobs abandoned after the lease-attempt cap.")
	w.IntSample("abm_sweepd_lease_giveups_total", nil, ts.GiveUps)

	if len(c.workers) > 0 {
		names := make([]string, 0, len(c.workers))
		for name := range c.workers {
			names = append(names, name)
		}
		sort.Strings(names)
		now := time.Now()
		w.Family("abm_sweepd_worker_heartbeat_age_seconds", "gauge", "Seconds since the worker was last heard from.")
		for _, name := range names {
			lbl := []prom.Label{{Name: "worker", Value: name}}
			w.Sample("abm_sweepd_worker_heartbeat_age_seconds", lbl, now.Sub(c.workers[name].lastSeen).Seconds())
		}
		w.Family("abm_sweepd_worker_jobs_done_total", "counter", "Records accepted from the worker.")
		for _, name := range names {
			lbl := []prom.Label{{Name: "worker", Value: name}}
			w.IntSample("abm_sweepd_worker_jobs_done_total", lbl, c.workers[name].done)
		}
		w.Family("abm_sweepd_worker_events_total", "counter", "Simulator events across the worker's accepted records (rate() gives events/s).")
		for _, name := range names {
			lbl := []prom.Label{{Name: "worker", Value: name}}
			w.IntSample("abm_sweepd_worker_events_total", lbl, c.workers[name].events)
		}
		w.Family("abm_sweepd_worker_wall_seconds_total", "counter", "Wall-clock seconds the worker spent in accepted jobs.")
		for _, name := range names {
			lbl := []prom.Label{{Name: "worker", Value: name}}
			w.Sample("abm_sweepd_worker_wall_seconds_total", lbl, c.workers[name].wallMS/1000)
		}
	}
}
