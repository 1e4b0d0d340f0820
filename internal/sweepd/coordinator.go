// Package sweepd is the distributed half of `sweep serve`/`sweep work`:
// a coordinator that owns the job table of a grid, hands out
// time-bounded job leases to workers over HTTP+JSON (or in-process),
// re-leases jobs whose workers miss heartbeats, and commits finished
// records to the sweep's runner.Store record log in batches. Workers
// are thin wrappers around runner.Execute — same SplitMix64 per-job
// seeding, panic/timeout isolation and retries — so a job's record is
// identical whether it ran on `sweep run`'s in-process pool or on a
// fleet of worker processes, and the aggregate is byte-identical.
//
// The coordinator can also replicate adaptively: with a CI target set,
// it keeps enqueueing extra replication seeds for a group until the
// bootstrap confidence interval of the target metric tightens below the
// target, so large grids spend compute where the variance lives.
// Workers ship per-job telemetry bundles alongside their records.
package sweepd

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"abm/internal/experiments"
	"abm/internal/randutil"
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
	// Plan overrides the grid expansion with a pre-built plan — the
	// in-process path (tests, embedded coordinators). With only Plan
	// set, remote workers cannot join (PlanInfo errors); in-process
	// workers share the plan pointer instead.
	Plan *runner.Plan

	// LeaseTTL is how long a lease lives without a heartbeat before the
	// job is handed to someone else. Default 30s.
	LeaseTTL time.Duration
	// MaxLeaseAttempts bounds how many times one job may be leased
	// before the coordinator gives up and records it failed — the guard
	// against a job that reliably kills its worker. Default 5.
	MaxLeaseAttempts int

	// CITarget, when > 0, turns on adaptive replication: after a
	// group's base replications finish, the coordinator keeps enqueuing
	// one extra seed at a time until the 95% bootstrap CI half-width of
	// CIMetric's mean, relative to the mean, drops to CITarget or the
	// group reaches MaxReps. Extra-replication seeds derive from
	// (plan seed, group's first spec index, replication number), so
	// they are deterministic regardless of completion order.
	CITarget float64
	// CIMetric is the metric adaptive replication tightens.
	// Default "p99_incast_slowdown".
	CIMetric string
	// MaxReps caps a group's total replications (base included).
	// Default 4x the group's base count.
	MaxReps int

	// Store, when non-nil, persists every record as it arrives and
	// seeds resumption: jobs whose IDs Completed() lists as ok, at the
	// seed the plan gives them, are marked done before any lease is
	// handed out.
	Store runner.RecordSink
	// Progress, when non-nil, receives lease/completion log lines.
	Progress io.Writer
}

// jobState is one job's lifecycle position.
type jobState int

const (
	jobPending jobState = iota
	jobLeased
	jobDone
)

// workerStats is the coordinator's per-worker view, fed by every RPC
// the worker makes and exported as fleet gauges on /metrics.
type workerStats struct {
	lastSeen time.Time
	done     int64   // records accepted from this worker
	events   int64   // simulator events across those records
	wallMS   float64 // wall-clock milliseconds across those records
}

// job is one row of the coordinator's job table.
type job struct {
	id      string
	index   int // spec index in the plan
	group   string
	seed    int64
	state   jobState
	worker  string
	expiry  time.Time
	attempt int // lease count
	rec     *runner.Record
}

// groupInfo tracks one aggregation group for adaptive replication.
type groupInfo struct {
	firstIndex int // spec index extra replications re-run
	baseReps   int // plan-defined replications
	reps       int // replications created so far (base + extras)
	settled    bool
}

// Coordinator owns the job table of one sweep: it leases jobs to
// workers, expires leases whose workers went quiet, collects records,
// persists them, and decides when the sweep — including adaptive
// replications — is finished.
type Coordinator struct {
	cfg      Config
	plan     *runner.Plan
	baseJSON []byte // the grid's base scenario file, for PlanInfo
	planJobs int    // len(plan.Specs) at construction

	mu      sync.Mutex
	jobs    []*job
	byID    map[string]*job
	pending []*job // FIFO; expired leases re-queue at the front
	groups  map[string]*groupInfo
	workers map[string]*workerStats
	// releases counts leases that expired and were requeued; giveups
	// counts jobs abandoned after MaxLeaseAttempts.
	releases int64
	giveups  int64
	done     chan struct{}
	closed   bool
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
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxLeaseAttempts <= 0 {
		cfg.MaxLeaseAttempts = 5
	}
	if cfg.CIMetric == "" {
		cfg.CIMetric = "p99_incast_slowdown"
	}

	c := &Coordinator{
		cfg:      cfg,
		plan:     plan,
		baseJSON: baseJSON,
		planJobs: len(plan.Specs),
		byID:     make(map[string]*job),
		groups:   make(map[string]*groupInfo),
		workers:  make(map[string]*workerStats),
		done:     make(chan struct{}),
	}
	for i, spec := range plan.Specs {
		j := &job{id: spec.ID, index: i, group: groupKey(spec), seed: plan.SeedOf(i)}
		c.jobs = append(c.jobs, j)
		c.byID[j.id] = j
		g, ok := c.groups[j.group]
		if !ok {
			g = &groupInfo{firstIndex: i}
			c.groups[j.group] = g
		}
		g.baseReps++
		g.reps++
	}

	var resumed map[string]runner.Record
	if cfg.Store != nil {
		var err error
		if resumed, err = cfg.Store.Completed(); err != nil {
			return nil, err
		}
	}
	for _, j := range c.jobs {
		if rec, ok := resumed[j.id]; ok && rec.OK() && rec.Seed == j.seed {
			rec.Cached = true
			j.state, j.rec = jobDone, &rec
			continue
		}
		c.pending = append(c.pending, j)
	}
	// Adaptive extra replications persisted by a previous run have
	// deterministic IDs and seeds, so they can be revived too — without
	// this a resumed sweep re-runs (and re-logs) every settled group's
	// extras. Extras are created one at a time per group, so replayed
	// records are contiguous in rep; stop at the first gap.
	if cfg.CITarget > 0 && len(resumed) > 0 {
		names := make([]string, 0, len(c.groups))
		for name := range c.groups {
			names = append(names, name)
		}
		sort.Slice(names, func(a, b int) bool {
			return c.groups[names[a]].firstIndex < c.groups[names[b]].firstIndex
		})
		for _, name := range names {
			g := c.groups[name]
			for g.reps < c.maxReps(g) {
				rep := g.reps
				rec, ok := resumed[c.extraJobID(name, rep)]
				if !ok || !rec.OK() || rec.Seed != c.extraSeed(g, rep) {
					break
				}
				rec.Cached = true
				j := &job{id: rec.ID, index: g.firstIndex, group: name,
					seed: rec.Seed, state: jobDone, rec: &rec}
				c.jobs = append(c.jobs, j)
				c.byID[j.id] = j
				g.reps++
			}
		}
	}
	// Groups revived whole from the store still owe their adaptive
	// check; checkGroup is cheap and idempotent, so probe every group.
	for group := range c.groups {
		c.checkGroupLocked(group)
	}
	c.maybeFinishLocked()
	return c, nil
}

// groupKey is the aggregation key the plan assigns a spec.
func groupKey(s runner.Spec) string {
	if s.Group != "" {
		return s.Group
	}
	return s.ID
}

// Plan returns the coordinator's job plan (shared with in-process
// workers).
func (c *Coordinator) Plan() *runner.Plan { return c.plan }

// LeaseTTL returns the configured lease duration, so in-process workers
// can pace heartbeats correctly before their first lease response.
func (c *Coordinator) LeaseTTL() time.Duration { return c.cfg.LeaseTTL }

// PlanInfo implements Dispatcher for remote workers.
func (c *Coordinator) PlanInfo() (*PlanInfo, error) {
	if c.cfg.Grid == nil {
		return nil, fmt.Errorf("sweepd: coordinator has no grid; remote workers cannot join a plan-only sweep")
	}
	return &PlanInfo{
		Name:           c.plan.Name,
		Jobs:           c.planJobs,
		Grid:           c.cfg.Grid,
		Scenario:       c.baseJSON,
		LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds(),
	}, nil
}

// Lease implements Dispatcher: it reaps expired leases, then hands out
// up to n pending jobs.
func (c *Coordinator) Lease(worker string, n int) (*LeaseResponse, error) {
	if n <= 0 {
		n = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(worker)
	c.reapLocked(time.Now())
	resp := &LeaseResponse{
		TTLMillis:     c.cfg.LeaseTTL.Milliseconds(),
		BackoffMillis: 200,
	}
	for len(resp.Leases) < n && len(c.pending) > 0 {
		j := c.pending[0]
		c.pending = c.pending[1:]
		if j.state != jobPending {
			// A requeued job whose original worker's late Complete
			// landed after all: it is done, not leasable.
			continue
		}
		j.state, j.worker = jobLeased, worker
		j.expiry = time.Now().Add(c.cfg.LeaseTTL)
		j.attempt++
		resp.Leases = append(resp.Leases, Lease{
			JobID:   j.id,
			Index:   j.index,
			SpecID:  c.plan.Specs[j.index].ID,
			Seed:    j.seed,
			Attempt: j.attempt - 1,
		})
		c.logf("lease %s -> %s (attempt %d)", j.id, worker, j.attempt)
	}
	resp.Done = c.finishedLocked()
	return resp, nil
}

// Heartbeat implements Dispatcher: it renews the worker's leases and
// reports the jobs it no longer holds.
func (c *Coordinator) Heartbeat(worker string, jobIDs []string) (*HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(worker)
	c.reapLocked(time.Now())
	resp := &HeartbeatResponse{}
	for _, id := range jobIDs {
		j, ok := c.byID[id]
		if !ok || j.state != jobLeased || j.worker != worker {
			resp.Lost = append(resp.Lost, id)
			continue
		}
		j.expiry = time.Now().Add(c.cfg.LeaseTTL)
	}
	return resp, nil
}

// Complete implements Dispatcher: it accepts one finished record,
// persists it (with its telemetry bundle, when the store can), and runs
// the group's adaptive-replication check. A record for a job already
// completed elsewhere (a lease that expired and was re-run) is ignored;
// first writer wins, which is safe because identical seeds produce
// identical results.
func (c *Coordinator) Complete(worker string, rec runner.Record, telemetry []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.touchWorkerLocked(worker)
	j, ok := c.byID[rec.ID]
	if !ok {
		return fmt.Errorf("sweepd: unknown job %q", rec.ID)
	}
	if j.state == jobDone {
		c.logf("duplicate result for %s from %s ignored", rec.ID, worker)
		return nil
	}
	if rec.Seed != j.seed {
		return fmt.Errorf("sweepd: job %q: result seed %d, lease says %d", rec.ID, rec.Seed, j.seed)
	}
	if c.cfg.Store != nil {
		if err := c.cfg.Store.Put(rec); err != nil {
			return err
		}
	}
	if len(telemetry) > 0 {
		// Telemetry persistence is best-effort and optional: a store
		// that cannot keep bundles (or a bundle that fails to land)
		// must not fail the result itself.
		if ts, ok := c.cfg.Store.(interface {
			PutTelemetry(id string, data []byte) error
		}); ok {
			if err := ts.PutTelemetry(rec.ID, telemetry); err != nil {
				c.logf("telemetry for %s dropped: %v", rec.ID, err)
			}
		}
	}
	if ws != nil {
		ws.done++
		ws.wallMS += rec.WallMS
		if rec.Result != nil {
			ws.events += int64(rec.Result.Events)
		}
	}
	if j.state == jobPending {
		// A late result for a job reapLocked already requeued: accept it
		// and pull the job back out of the pending queue so it is not
		// leased — and re-run — a second time.
		c.removePendingLocked(j)
	}
	j.state, j.worker, j.rec = jobDone, "", &rec
	c.logf("done %s from %s (%s)", rec.ID, worker, rec.Status)
	c.checkGroupLocked(j.group)
	c.maybeFinishLocked()
	return nil
}

// removePendingLocked deletes one job from the pending queue (a late
// Complete for a requeued job).
func (c *Coordinator) removePendingLocked(target *job) {
	for i, j := range c.pending {
		if j == target {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// reapLocked re-queues jobs whose leases expired; a job leased too many
// times is recorded as failed instead of looping forever.
func (c *Coordinator) reapLocked(now time.Time) {
	for _, j := range c.jobs {
		if j.state != jobLeased || now.Before(j.expiry) {
			continue
		}
		if j.attempt >= c.cfg.MaxLeaseAttempts {
			if j.rec != nil && j.rec.OK() {
				// A successful record already landed for this job (it
				// should not still be leased, but never let the give-up
				// path clobber a real result with a synthesized failure).
				j.state, j.worker = jobDone, ""
				c.checkGroupLocked(j.group)
				continue
			}
			rec := runner.Record{
				ID:         j.id,
				Experiment: c.plan.Specs[j.index].Experiment,
				Group:      c.plan.Specs[j.index].Group,
				Seed:       j.seed,
				Status:     runner.StatusFailed,
				Error: fmt.Sprintf("sweepd: lease expired %d times (last worker %s)",
					j.attempt, j.worker),
				Attempts: j.attempt,
			}
			if c.cfg.Store != nil {
				if err := c.cfg.Store.Put(rec); err != nil {
					c.logf("store error for %s: %v", j.id, err)
				}
			}
			j.state, j.worker, j.rec = jobDone, "", &rec
			c.giveups++
			c.logf("gave up on %s after %d leases", j.id, j.attempt)
			c.checkGroupLocked(j.group)
			continue
		}
		c.releases++
		c.logf("lease expired: %s (worker %s, attempt %d)", j.id, j.worker, j.attempt)
		j.state, j.worker = jobPending, ""
		// Front of the queue: an interrupted job is the oldest work.
		c.pending = append([]*job{j}, c.pending...)
	}
	c.maybeFinishLocked()
}

// checkGroupLocked runs the adaptive-replication decision for a group:
// once its base replications are all in, keep one extra replication in
// flight until the CI target is met or the cap is reached.
func (c *Coordinator) checkGroupLocked(group string) {
	g := c.groups[group]
	if g == nil || g.settled {
		return
	}
	if c.cfg.CITarget <= 0 {
		g.settled = true
		return
	}
	var recs []runner.Record
	finished := 0
	for _, j := range c.jobs {
		if j.group != group {
			continue
		}
		if j.state != jobDone {
			return // replications still in flight; decide when they land
		}
		finished++
		if j.rec != nil && j.rec.OK() {
			recs = append(recs, *j.rec)
		}
	}
	if finished < g.baseReps || len(recs) == 0 {
		// Not enough signal (or everything failed): nothing to tighten.
		g.settled = len(recs) == 0
		return
	}
	rel, ok := c.relCIHalfWidth(recs)
	if !ok {
		// The target metric does not exist in this experiment's records.
		g.settled = true
		return
	}
	if rel <= c.cfg.CITarget || g.reps >= c.maxReps(g) {
		g.settled = true
		return
	}
	c.addReplicationLocked(group, g)
}

// maxReps resolves the replication cap for a group.
func (c *Coordinator) maxReps(g *groupInfo) int {
	if c.cfg.MaxReps > 0 {
		return c.cfg.MaxReps
	}
	return 4 * g.baseReps
}

// relCIHalfWidth computes the target metric's bootstrap-CI half-width
// relative to its mean over the group's successful records, reusing
// runner.Aggregate so the numbers match what the final aggregation will
// report. ok is false when the metric is absent.
func (c *Coordinator) relCIHalfWidth(recs []runner.Record) (rel float64, ok bool) {
	if _, has := runner.MetricsOf(recs[0])[c.cfg.CIMetric]; !has {
		return 0, false
	}
	groups := runner.Aggregate(recs)
	if len(groups) != 1 {
		return 0, false
	}
	st, has := groups[0].Metrics[c.cfg.CIMetric]
	if !has {
		return 0, false
	}
	half := (st.CIHi - st.CILo) / 2
	if mean := math.Abs(st.Mean); mean > 0 {
		return half / mean, true
	}
	return half, true
}

// extraJobID names a group's rep-th replication (base reps included in
// the numbering); extraSeed derives its seed from (plan seed -> first
// spec index -> replication number). Both are pure functions of the
// plan, so the k-th extra replication is identical in every run of the
// sweep — whatever order groups tighten in, and across resumes.
func (c *Coordinator) extraJobID(group string, rep int) string {
	return fmt.Sprintf("%s/extra-%s,rep=%d", c.plan.Name, group, rep)
}

func (c *Coordinator) extraSeed(g *groupInfo, rep int) int64 {
	return randutil.DeriveSeed(randutil.DeriveSeed(c.plan.Seed, g.firstIndex), rep)
}

// addReplicationLocked enqueues one extra replication for the group.
func (c *Coordinator) addReplicationLocked(group string, g *groupInfo) {
	rep := g.reps
	g.reps++
	id := c.extraJobID(group, rep)
	seed := c.extraSeed(g, rep)
	j := &job{id: id, index: g.firstIndex, group: group, seed: seed}
	c.jobs = append(c.jobs, j)
	c.byID[id] = j
	c.pending = append(c.pending, j)
	c.logf("adaptive: +1 replication for %s (rep %d, seed %d)", group, rep, seed)
}

// finishedLocked reports whether every job is done and every group
// settled.
func (c *Coordinator) finishedLocked() bool {
	if len(c.pending) > 0 {
		return false
	}
	for _, j := range c.jobs {
		if j.state != jobDone {
			return false
		}
	}
	for _, g := range c.groups {
		if !g.settled && c.cfg.CITarget > 0 {
			return false
		}
	}
	return true
}

// maybeFinishLocked closes the done channel exactly once.
func (c *Coordinator) maybeFinishLocked() {
	if !c.closed && c.finishedLocked() {
		c.closed = true
		close(c.done)
	}
}

// Done returns a channel closed when the sweep is complete.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Wait blocks until the sweep completes or ctx is canceled. It also
// drives lease expiry while blocked, so a sweep whose workers all died
// still converges (to failed records) instead of hanging.
func (c *Coordinator) Wait(ctx context.Context) error {
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			c.mu.Lock()
			c.reapLocked(time.Now())
			c.mu.Unlock()
		}
	}
}

// Records returns every job's record: plan jobs in plan order first,
// then adaptive extras in creation order. Jobs that never finished
// (the sweep was abandoned) are skipped.
func (c *Coordinator) Records() []runner.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	recs := make([]runner.Record, 0, len(c.jobs))
	for _, j := range c.jobs {
		if j.rec != nil {
			recs = append(recs, *j.rec)
		}
	}
	return recs
}

// Status returns a live snapshot for the status endpoint.
func (c *Coordinator) Status() *Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &Status{Name: c.plan.Name, Jobs: len(c.jobs), Finished: c.finishedLocked()}
	byGroup := make(map[string]*GroupStatus)
	for _, j := range c.jobs {
		gs := byGroup[j.group]
		if gs == nil {
			gs = &GroupStatus{Group: j.group}
			byGroup[j.group] = gs
		}
		gs.Total++
		switch j.state {
		case jobPending:
			st.Pending++
		case jobLeased:
			st.Leased++
		case jobDone:
			st.Done++
			if j.rec != nil && j.rec.OK() {
				gs.OK++
			} else {
				gs.Failed++
				st.Failed++
			}
		}
	}
	names := make([]string, 0, len(byGroup))
	for name := range byGroup {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		gs := byGroup[name]
		g := c.groups[name]
		gs.Settled = g.settled
		var recs []runner.Record
		for _, j := range c.jobs {
			if j.group == name && j.rec != nil && j.rec.OK() {
				recs = append(recs, *j.rec)
			}
		}
		if c.cfg.CITarget > 0 && len(recs) >= 2 {
			if rel, ok := c.relCIHalfWidth(recs); ok {
				gs.RelCIHalfWidth = rel
				gs.Mean = runner.Aggregate(recs)[0].Metrics[c.cfg.CIMetric].Mean
			}
		}
		gs.Slowdown = SlowdownOf(recs)
		st.Groups = append(st.Groups, *gs)
	}
	if s, ok := c.cfg.Store.(*Store); ok && s != nil {
		stats := s.Stats()
		st.Batch = &stats
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

// logf writes one progress line when Progress is set.
func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Progress != nil {
		fmt.Fprintf(c.cfg.Progress, "sweepd: "+format+"\n", args...)
	}
}
