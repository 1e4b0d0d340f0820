// Package runner is the sweep orchestration layer behind cmd/sweep —
// its grids and its -fig figure runs (internal/experiments builds both
// plans): it holds experiment job lists (Plan), schedules them on one
// job table (Table — leases, resume, adaptive replication; the
// distributed coordinator in internal/sweepd serves the same table to
// remote workers), runs them on in-process workers with per-job
// timeouts, panic recovery and bounded retries (Pool), persists every
// record in a CRC-framed append-only log that enables resumption
// (Store — the one durable format), and reduces replicated seeds into
// summary statistics with bootstrap confidence intervals (Aggregate).
//
// The runner is generic: a Spec carries an opaque Run function, so any
// simulation entry point — scenario runs, burst-lab measurements —
// can be driven by the same pool. Determinism holds by construction:
// each job's seed is pinned by its spec or derived from the plan seed
// and the job's index with SplitMix64 (Plan.SeedOf), and results are
// collected by job index, so the outcome is byte-identical at any
// worker count or completion order.
package runner

import (
	"context"
	"time"

	"abm/internal/metrics"
	"abm/internal/obs/hist"
)

// RunFunc executes one job. The seed is the job's derived simulation
// seed; ctx carries the per-job deadline (simulations that cannot
// observe it are abandoned by the pool when it expires). The returned
// Result is persisted verbatim in the job's Record.
type RunFunc func(ctx context.Context, seed int64) (Result, error)

// Spec describes one simulation job: which experiment it belongs to,
// its configuration echo, its seed and deadline, and the function that
// runs it.
type Spec struct {
	// ID uniquely identifies the job within its plan; it keys the result
	// store, so it must be stable across runs for --resume to work.
	ID string
	// Experiment names the figure or grid the job belongs to.
	Experiment string
	// Group keys aggregation: jobs that differ only in their replication
	// seed share a Group and are reduced together by Aggregate.
	Group string
	// Seed is the job's simulation seed. Zero means "derive from the
	// plan seed and job index" (the default for replicated sweeps);
	// nonzero pins the seed (the figure runners do this so their TSV
	// output is a pure function of the figure seed).
	Seed int64
	// Timeout bounds the job's wall-clock time; zero means no limit.
	Timeout time.Duration
	// Config is echoed into the job's JSON record for provenance.
	Config any
	// Run executes the job.
	Run RunFunc
}

// Result is the payload of a successful job: the paper's flow-metric
// summary plus simulator counters and free-form named extras (per-prio
// tails, burst tolerances, ...).
type Result struct {
	Summary          metrics.Summary    `json:"summary"`
	Events           uint64             `json:"events,omitempty"`
	Drops            int64              `json:"drops,omitempty"`
	UnscheduledDrops int64              `json:"unscheduled_drops,omitempty"`
	Extra            map[string]float64 `json:"extra,omitempty"`
	// Counters carries the run's telemetry counter totals by export
	// name when the job enabled telemetry (see internal/obs).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Hists carries the run's merged histogram snapshots by export name
	// when the job enabled histogram recording; the coordinator merges
	// them fleet-wide (hist.Snapshot.Merge is order-invariant).
	Hists map[string]hist.Snapshot `json:"hists,omitempty"`
	// Scenario is the fully-resolved scenario spec the job executed
	// (scenario.Scenario, typed any to keep this package policy-free):
	// unlike the Config echo, it records every defaulted knob explicitly,
	// so the record alone is enough to re-run the job exactly.
	Scenario any `json:"scenario,omitempty"`
}

// Status classifies how a job ended.
type Status string

// Job statuses.
const (
	StatusOK       Status = "ok"
	StatusFailed   Status = "failed"   // Run returned an error (after retries)
	StatusPanic    Status = "panic"    // Run panicked; Stack holds the trace
	StatusTimeout  Status = "timeout"  // per-job deadline expired
	StatusCanceled Status = "canceled" // the sweep's context was canceled
)

// Record is the persisted outcome of one job — the JSON payload of one
// Store log line and the input to Aggregate.
type Record struct {
	ID         string  `json:"id"`
	Experiment string  `json:"experiment,omitempty"`
	Group      string  `json:"group,omitempty"`
	Seed       int64   `json:"seed"`
	Config     any     `json:"config,omitempty"`
	Status     Status  `json:"status"`
	Error      string  `json:"error,omitempty"`
	Stack      string  `json:"stack,omitempty"`
	Attempts   int     `json:"attempts"`
	WallMS     float64 `json:"wall_ms"`
	Result     *Result `json:"result,omitempty"`

	// Cached marks records served from the store by --resume rather than
	// executed in this run. Not persisted.
	Cached bool `json:"-"`
}

// OK reports whether the job completed successfully.
func (r Record) OK() bool { return r.Status == StatusOK }

// Failed filters records down to the ones that did not complete.
func Failed(records []Record) []Record {
	var out []Record
	for _, r := range records {
		if !r.OK() {
			out = append(out, r)
		}
	}
	return out
}
