// Package sweepd is the remote half of `sweep serve`/`sweep work`: a
// coordinator that serves a sweep's runner.Table to worker processes
// over HTTP+JSON, bounds their leases by a TTL that heartbeats renew,
// keeps per-worker stats and lands the telemetry bundles workers ship
// with their records. The table itself — FIFO leases, give-up after
// MaxLeaseAttempts, first-writer-wins results, resume, adaptive
// replication, committing each accepted record to the sweep's
// runner.Store (one write and one fsync per record) — is runner's,
// shared with `sweep run` and with serve's in-process workers. Remote
// workers are thin wrappers around runner.Execute — same per-job
// seeds, panic/timeout isolation and retries — so a job's record is
// identical wherever it ran, and the aggregate is byte-identical.
package sweepd

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"abm/internal/experiments"
	"abm/internal/runner"
	"abm/internal/scenario"
)

// expand parses a grid's base scenario bytes and expands the grid over
// them — the one expansion the coordinator and every worker share.
func expand(grid experiments.Grid, baseJSON []byte) (*runner.Plan, error) {
	base, err := scenario.Parse(baseJSON)
	if err != nil {
		return nil, err
	}
	return grid.Expand(base)
}

// Config configures a Coordinator.
type Config struct {
	// Grid expands to the job table. Required unless Plan is set
	// directly; also required (alongside the plan) to serve remote
	// workers, which rebuild the plan from the grid's JSON.
	Grid *experiments.Grid
	// Plan overrides the grid expansion with a pre-built plan (tests,
	// embedded coordinators). With only Plan set, remote workers cannot
	// join (PlanInfo errors); in-process workers work the table.
	Plan *runner.Plan

	// LeaseTTL is how long a remote lease lives without a heartbeat
	// before the job is handed to someone else. Default 30s.
	LeaseTTL time.Duration
	// TelemetryDir, when set, is where Complete lands worker-shipped
	// telemetry bundles (see PutTelemetry). Empty drops them.
	TelemetryDir string
	// TableConfig is the job table's policy: lease attempts, adaptive
	// replication and the record store. Its Log also receives the
	// coordinator's own lines.
	runner.TableConfig
}

// workerStats is the coordinator's per-worker view, fed by every RPC
// the worker makes and exported as fleet gauges on /metrics.
type workerStats struct {
	lastSeen time.Time
	done     int64   // records accepted from this worker
	events   int64   // simulator events across those records
	wallMS   float64 // wall-clock milliseconds across those records
}

// Coordinator serves one sweep's job table to remote workers: it
// leases jobs under a TTL, lets leases whose workers went quiet
// expire, lands records and telemetry bundles, and tracks each worker.
type Coordinator struct {
	cfg      Config
	table    *runner.Table
	baseJSON []byte // the grid's base scenario file, for PlanInfo

	// mu serializes the RPCs that touch worker stats and telemetry.
	mu      sync.Mutex
	workers map[string]*workerStats
}

// NewCoordinator builds the job table and, when a store is configured,
// marks already-completed jobs done (resume).
func NewCoordinator(cfg Config) (*Coordinator, error) {
	// The grid's base scenario is read once: the bytes are parsed for
	// the expansion here and shipped verbatim to remote workers.
	plan := cfg.Plan
	var baseJSON []byte
	switch {
	case cfg.Grid != nil:
		if cfg.Grid.Scenario == "" {
			return nil, fmt.Errorf("sweepd: grid needs a base scenario file")
		}
		data, err := os.ReadFile(cfg.Grid.Scenario)
		if err != nil {
			return nil, fmt.Errorf("sweepd: scenario file: %w", err)
		}
		baseJSON = data
		if plan == nil {
			if plan, err = expand(*cfg.Grid, data); err != nil {
				return nil, fmt.Errorf("sweepd: %s: %w", cfg.Grid.Scenario, err)
			}
		}
	case plan == nil:
		return nil, fmt.Errorf("sweepd: config needs a Grid or a Plan")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	table, err := runner.NewTable(plan, cfg.TableConfig)
	if err != nil {
		return nil, err
	}
	return &Coordinator{cfg: cfg, table: table, baseJSON: baseJSON, workers: make(map[string]*workerStats)}, nil
}

// Table returns the job table, which in-process workers work directly.
func (c *Coordinator) Table() *runner.Table { return c.table }

// PlanInfo implements Dispatcher for remote workers.
func (c *Coordinator) PlanInfo() (*PlanInfo, error) {
	if c.cfg.Grid == nil {
		return nil, fmt.Errorf("sweepd: coordinator has no grid; remote workers cannot join a plan-only sweep")
	}
	plan := c.table.Plan()
	return &PlanInfo{Name: plan.Name, Jobs: len(plan.Specs), Grid: c.cfg.Grid, Scenario: c.baseJSON}, nil
}

// Lease implements Dispatcher: it hands out up to n pending jobs, each
// under the lease TTL.
func (c *Coordinator) Lease(worker string, n int) (*LeaseResponse, error) {
	if n <= 0 {
		n = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(worker)
	resp := &LeaseResponse{TTLMillis: c.cfg.LeaseTTL.Milliseconds(), BackoffMillis: 200}
	plan := c.table.Plan()
	for _, l := range c.table.Lease(worker, n, c.cfg.LeaseTTL) {
		resp.Leases = append(resp.Leases, Lease{Lease: l, SpecID: plan.Specs[l.Index].ID})
	}
	select {
	case <-c.table.Done():
		resp.Done = true
	default:
	}
	return resp, nil
}

// Heartbeat implements Dispatcher: it renews the worker's leases and
// reports the jobs it no longer holds.
func (c *Coordinator) Heartbeat(worker string, jobIDs []string) (*HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(worker)
	return &HeartbeatResponse{Lost: c.table.Renew(worker, jobIDs, c.cfg.LeaseTTL)}, nil
}

// Complete implements Dispatcher: it lands one finished record in the
// table (first writer wins) and, when the table accepts it, lands its
// telemetry bundle under TelemetryDir. An accepted record is in the
// table's store when Complete returns; a store error is returned, and
// the table keeps it for Wait (the worker's retry is a duplicate the
// table ignores).
func (c *Coordinator) Complete(worker string, rec runner.Record, telemetry []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.touchWorkerLocked(worker)
	accepted, err := c.table.Complete(worker, rec)
	if !accepted {
		return err
	}
	if len(telemetry) > 0 && c.cfg.TelemetryDir != "" {
		// Telemetry persistence is best-effort: a bundle that fails to
		// land must not fail the result itself.
		if err := PutTelemetry(c.cfg.TelemetryDir, rec.ID, telemetry); err != nil {
			c.logf("telemetry for %s dropped: %v", rec.ID, err)
		}
	}
	if ws != nil {
		ws.done++
		ws.wallMS += rec.WallMS
		if rec.Result != nil {
			ws.events += int64(rec.Result.Events)
		}
	}
	return err
}

// Wait blocks until the sweep completes or ctx is canceled, and then
// returns the table's first store error (Table.Err). It
// also drives lease expiry while blocked, so a sweep whose workers all
// died still converges (to failed records) instead of hanging.
func (c *Coordinator) Wait(ctx context.Context) error {
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-c.table.Done():
			// The Complete that finished the sweep may still be landing
			// its telemetry bundle; it holds mu until it has.
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.table.Err()
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			c.table.Reap(time.Now())
		}
	}
}

// Status returns a live snapshot for the status endpoint.
func (c *Coordinator) Status() *Status {
	ts := c.table.Status()
	st := &Status{Name: c.table.Plan().Name, TableStatus: ts, Finished: ts.Done == ts.Jobs}
	for _, g := range ts.Groups {
		st.Groups = append(st.Groups, GroupStatus{TableGroup: g, Slowdown: SlowdownOf(g.Records)})
	}
	return st
}

// touchWorkerLocked records that a worker was heard from just now and
// returns its stats row. Callers hold c.mu. An empty worker name (some
// tests drive the Dispatcher directly) is not tracked.
func (c *Coordinator) touchWorkerLocked(worker string) *workerStats {
	if worker == "" {
		return nil
	}
	ws := c.workers[worker]
	if ws == nil {
		ws = &workerStats{}
		c.workers[worker] = ws
	}
	ws.lastSeen = time.Now()
	return ws
}

// logf writes one log line when Log is set.
func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, "sweepd: "+format+"\n", args...)
	}
}
