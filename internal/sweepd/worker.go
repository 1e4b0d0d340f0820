package sweepd

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"abm/internal/obs/prom"
	"abm/internal/runner"
	"abm/internal/scenario"
)

// Worker is a remote sweep worker: it executes jobs leased from a
// coordinator (over HTTP, a *Client) with runner.Execute — the path
// in-process workers take, with panic recovery, per-job deadline and
// bounded retries — plus the lease lifecycle: poll for leases,
// heartbeat while running, report records with their telemetry
// bundles, exit when the coordinator says the sweep is done.
type Worker struct {
	// Dispatcher is the coordinator, usually a *Client.
	Dispatcher Dispatcher
	// Name identifies the worker in leases and logs. Default
	// "worker-<pid>".
	Name string
	// Slots is how many jobs run concurrently. Default 1; capped so
	// that slots x the grid's shards per job stay within GOMAXPROCS.
	Slots int
	// Timeout, Retries, Backoff configure runner.Execute per job.
	Timeout time.Duration
	Retries int
	Backoff time.Duration
	// Progress, when non-nil, receives per-job log lines.
	Progress io.Writer

	// plan, when set, stands in for the PlanInfo fetch: in-package
	// tests run synthetic plans, which cannot travel as grids.
	plan *runner.Plan

	ttl    atomic.Int64 // lease TTL in ns, from the latest lease response
	mu     sync.Mutex
	active map[string]bool // job IDs currently running (heartbeat set)
	// Lifetime work counters behind the worker's own /metrics endpoint.
	jobsDone int64
	events   int64
	wallMS   float64
}

// Run works the sweep until the coordinator reports it done or ctx is
// canceled. Transport errors back off and retry; ErrCoordinatorGone is
// returned after the coordinator stays unreachable for ~10 consecutive
// polls.
func (w *Worker) Run(ctx context.Context) error {
	if w.Name == "" {
		w.Name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	w.active = make(map[string]bool)

	// Heartbeats pace at TTL/3 from the coordinator's lease TTL, which
	// every lease response carries.
	w.ttl.Store(int64(30 * time.Second))
	plan, shards := w.plan, 0
	if plan == nil {
		info, p, err := w.fetchPlan()
		if err != nil {
			return err
		}
		plan, shards = p, info.Grid.Shards
	}
	slots := w.Slots
	if slots <= 0 {
		slots = 1
	}
	slots = runner.CapWorkers(slots, shards, w.Progress)

	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx)

	errs := make(chan error, slots)
	for s := 0; s < slots; s++ {
		go func() { errs <- w.slot(ctx, plan) }()
	}
	var first error
	for s := 0; s < slots; s++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ErrCoordinatorGone reports a coordinator that stopped answering.
var ErrCoordinatorGone = fmt.Errorf("sweepd: coordinator unreachable")

// slot is one lease-execute-report loop.
func (w *Worker) slot(ctx context.Context, plan *runner.Plan) error {
	consecutiveFails := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		resp, err := w.Dispatcher.Lease(w.Name, 1)
		if err != nil {
			consecutiveFails++
			if consecutiveFails >= 10 {
				return fmt.Errorf("%w: %v", ErrCoordinatorGone, err)
			}
			w.sleep(ctx, time.Second)
			continue
		}
		consecutiveFails = 0
		if resp.TTLMillis > 0 {
			w.ttl.Store(int64(time.Duration(resp.TTLMillis) * time.Millisecond))
		}
		if len(resp.Leases) == 0 {
			if resp.Done {
				return nil
			}
			backoff := time.Duration(resp.BackoffMillis) * time.Millisecond
			if backoff <= 0 {
				backoff = 200 * time.Millisecond
			}
			w.sleep(ctx, backoff)
			continue
		}
		for _, lease := range resp.Leases {
			if err := w.runLease(ctx, plan, lease); err != nil {
				return err
			}
		}
	}
}

// runLease executes one leased job and reports its record.
func (w *Worker) runLease(ctx context.Context, plan *runner.Plan, lease Lease) error {
	if lease.Index < 0 || lease.Index >= len(plan.Specs) {
		return fmt.Errorf("sweepd: lease %s: spec index %d outside local plan (%d specs) — worker and coordinator disagree on the grid",
			lease.ID, lease.Index, len(plan.Specs))
	}
	spec := plan.Specs[lease.Index]
	if lease.SpecID != "" && spec.ID != lease.SpecID {
		return fmt.Errorf("sweepd: lease %s: local spec %d is %q, coordinator says %q — worker and coordinator disagree on the grid",
			lease.ID, lease.Index, spec.ID, lease.SpecID)
	}

	w.mu.Lock()
	w.active[lease.ID] = true
	w.mu.Unlock()
	w.logf("run %s (seed %d, attempt %d)", lease.ID, lease.Seed, lease.Attempt)

	rec := runner.Execute(ctx, spec, lease.Seed, runner.ExecOptions{
		Timeout: w.Timeout, Retries: w.Retries, Backoff: w.Backoff,
	})
	// The record reports under the lease's job ID: adaptive extra
	// replications re-run a base spec under their own identity.
	rec.ID = lease.ID

	w.mu.Lock()
	delete(w.active, lease.ID)
	w.jobsDone++
	w.wallMS += rec.WallMS
	if rec.Result != nil {
		w.events += int64(rec.Result.Events)
	}
	w.mu.Unlock()

	if rec.Status == runner.StatusCanceled {
		// Ours was the canceled context; the lease will expire and the
		// job re-runs elsewhere. Nothing to report.
		return nil
	}
	telemetry := w.bundleTelemetry(lease.ID, rec)
	// The result is real work; try hard to deliver it.
	var err error
	for i := 0; i < 5; i++ {
		if err = w.Dispatcher.Complete(w.Name, rec, telemetry); err == nil {
			w.logf("done %s (%s)", lease.ID, rec.Status)
			return nil
		}
		w.sleep(ctx, time.Duration(i+1)*200*time.Millisecond)
		if ctx.Err() != nil {
			break
		}
	}
	w.logf("dropping result for %s: %v", lease.ID, err)
	return nil // the lease expires and the job re-runs; not fatal
}

// bundleTelemetry compresses the per-job NDJSON event trace a
// successful job wrote, for the worker to ship with its record. Returns
// nil (ship nothing) when the job wrote no trace; bundling failures
// only cost the bundle, never the result.
func (w *Worker) bundleTelemetry(jobID string, rec runner.Record) []byte {
	if !rec.OK() || rec.Result == nil {
		return nil
	}
	// The resolved scenario knows where this job's trace landed; jobs
	// run with per-job telemetry each write their own file.
	sc, ok := rec.Result.Scenario.(scenario.Scenario)
	if !ok || sc.Obs.EventsFile == "" {
		return nil
	}
	trace, err := os.ReadFile(sc.Obs.EventsFile)
	if err != nil {
		return nil
	}
	data, err := EncodeTelemetry(&TelemetryBundle{JobID: jobID, TraceNDJSON: trace})
	if err != nil {
		w.logf("telemetry bundle for %s dropped: %v", jobID, err)
		return nil
	}
	return data
}

// WriteMetrics renders the worker's own gauges in Prometheus text
// format — the body behind "sweep work -metrics-addr".
func (w *Worker) WriteMetrics(pw *prom.Writer) {
	w.mu.Lock()
	active := len(w.active)
	done, events, wallMS := w.jobsDone, w.events, w.wallMS
	w.mu.Unlock()
	pw.Family("abm_sweepd_worker_active_jobs", "gauge", "Jobs this worker is currently running.")
	pw.IntSample("abm_sweepd_worker_active_jobs", nil, int64(active))
	pw.Family("abm_sweepd_worker_jobs_done_total", "counter", "Jobs this worker has finished (any status).")
	pw.IntSample("abm_sweepd_worker_jobs_done_total", nil, done)
	pw.Family("abm_sweepd_worker_events_total", "counter", "Simulator events across finished jobs (rate() gives events/s).")
	pw.IntSample("abm_sweepd_worker_events_total", nil, events)
	pw.Family("abm_sweepd_worker_wall_seconds_total", "counter", "Wall-clock seconds spent in finished jobs.")
	pw.Sample("abm_sweepd_worker_wall_seconds_total", nil, wallMS/1000)
}

// heartbeatLoop renews leases on every active job at TTL/3. It sleeps
// in short steps so a TTL update from a lease response takes effect on
// the in-flight wait, not one full (possibly 30s-stale) interval later.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	last := time.Now()
	for {
		interval := time.Duration(w.ttl.Load()) / 3
		if interval < 50*time.Millisecond {
			interval = 50 * time.Millisecond
		}
		if wait := interval - time.Since(last); wait > 0 {
			if wait > 100*time.Millisecond {
				wait = 100 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
			continue
		}
		last = time.Now()
		w.mu.Lock()
		ids := make([]string, 0, len(w.active))
		for id := range w.active {
			ids = append(ids, id)
		}
		w.mu.Unlock()
		if len(ids) == 0 {
			continue
		}
		resp, err := w.Dispatcher.Heartbeat(w.Name, ids)
		if err != nil {
			continue // transient; the next beat retries
		}
		for _, lost := range resp.Lost {
			w.logf("lease lost: %s (will finish and be ignored)", lost)
		}
	}
}

// fetchPlan pulls PlanInfo and rebuilds the plan locally from the grid
// and the base scenario bytes it carries.
func (w *Worker) fetchPlan() (*PlanInfo, *runner.Plan, error) {
	info, err := w.Dispatcher.PlanInfo()
	if err != nil {
		return nil, nil, err
	}
	if info.Grid == nil || len(info.Scenario) == 0 {
		return nil, nil, fmt.Errorf("sweepd: coordinator sent no grid or no base scenario")
	}
	plan, err := expand(*info.Grid, info.Scenario)
	if err != nil {
		return nil, nil, err
	}
	if len(plan.Specs) != info.Jobs {
		return nil, nil, fmt.Errorf("sweepd: local grid expansion has %d jobs, coordinator says %d — version skew",
			len(plan.Specs), info.Jobs)
	}
	return info, plan, nil
}

// sleep waits without outliving ctx.
func (w *Worker) sleep(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// logf writes one worker log line when Progress is set.
func (w *Worker) logf(format string, args ...any) {
	if w.Progress != nil {
		fmt.Fprintf(w.Progress, "%s: "+format+"\n", append([]any{w.Name}, args...)...)
	}
}
