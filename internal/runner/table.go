package runner

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"abm/internal/randutil"
)

// Table is the job table of one sweep and the only scheduler: Pool's
// in-process workers (Work) and the remote workers of internal/sweepd
// all take their jobs from it. Jobs lease in FIFO order; an expired
// lease re-queues at the front, and a job leased MaxLeaseAttempts
// times without a result is recorded failed. The first record to
// arrive for a job wins, which is safe because a job's seed fixes its
// result. On resume, logged records stand in for the jobs they ran at
// the seed the plan gives them, adaptive extras included.
type Table struct {
	plan *Plan
	cfg  TableConfig

	mu      sync.Mutex
	cond    sync.Cond   // broadcast when a job is queued or the sweep finishes
	jobs    []*tableJob // plan jobs in plan order, then extras in creation order
	byID    map[string]*tableJob
	pending []*tableJob // FIFO; expired leases re-queue at the front
	groups  []*group    // in order of first spec index
	open    int         // jobs not yet done
	// releases counts leases that expired and were requeued; giveups
	// counts jobs abandoned after MaxLeaseAttempts.
	releases, giveups int64
	// storeErr is the first error persisting an accepted record, from
	// Complete or a give-up alike; Work and Err report it.
	storeErr error
	done     chan struct{}
}

// TableConfig sets a Table's lease, replication and persistence policy.
type TableConfig struct {
	// MaxLeaseAttempts bounds how many times one job may be leased
	// before the table gives up and records it failed — the guard
	// against a job that reliably kills its worker. Default 5.
	MaxLeaseAttempts int

	// CITarget, when > 0, turns on adaptive replication: after a
	// group's base replications finish, the table keeps enqueuing one
	// extra seed at a time until the 95% bootstrap CI half-width of
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

	// Store, when non-nil, persists every accepted record and seeds
	// resumption. Assign a concrete value only when it is non-nil.
	Store RecordSink
	// Log, when non-nil, receives one line per lease, result, expiry
	// and extra replication.
	Log io.Writer
}

// Lease is one job handed to a worker: run plan spec Index at Seed and
// report the record under ID (an adaptive extra re-runs its group's
// first spec under its own ID). Remote workers receive it inside
// sweepd's wire lease, hence the JSON names.
type Lease struct {
	ID      string `json:"job_id"`
	Index   int    `json:"index"`
	Seed    int64  `json:"seed"`
	Attempt int    `json:"attempt"` // prior leases of this job
}

type jobState int

const (
	jobPending jobState = iota
	jobLeased
	jobDone
)

// tableJob is one row of the job table.
type tableJob struct {
	id      string
	index   int // spec index in the plan
	group   *group
	seed    int64
	state   jobState
	worker  string
	expiry  time.Time // zero: the lease never expires (in-process workers)
	attempt int       // lease count
	rec     *Record
}

// group tracks one aggregation group for adaptive replication.
type group struct {
	name    string
	first   int         // spec index extra replications re-run
	base    int         // plan-defined replications
	jobs    []*tableJob // base replications, then extras
	settled bool
}

// NewTable builds the job table of a plan and, when a store is
// configured, marks the jobs it already holds done (resume).
func NewTable(plan *Plan, cfg TableConfig) (*Table, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxLeaseAttempts <= 0 {
		cfg.MaxLeaseAttempts = 5
	}
	if cfg.CIMetric == "" {
		cfg.CIMetric = "p99_incast_slowdown"
	}
	var resumed map[string]Record
	if cfg.Store != nil {
		var err error
		if resumed, err = cfg.Store.Completed(); err != nil {
			return nil, err
		}
	}
	t := &Table{plan: plan, cfg: cfg, byID: make(map[string]*tableJob), done: make(chan struct{})}
	t.cond.L = &t.mu
	byName := make(map[string]*group)
	for i, spec := range plan.Specs {
		name := spec.Group
		if name == "" {
			name = spec.ID
		}
		g := byName[name]
		if g == nil {
			g = &group{name: name, first: i}
			byName[name] = g
			t.groups = append(t.groups, g)
		}
		g.base++
		j := &tableJob{id: spec.ID, index: i, seed: plan.SeedOf(i)}
		// A logged record stands in for the job only if it ran at the
		// seed this plan gives the job: a changed -seed re-runs it
		// instead of serving the old numbers.
		if rec, ok := resumed[j.id]; ok && rec.OK() && rec.Seed == j.seed {
			rec.Cached = true
			j.state, j.rec = jobDone, &rec
		}
		t.addLocked(j, g)
	}
	// Adaptive extras persisted by a previous run have deterministic IDs
	// and seeds, so they revive too — without this a resumed sweep
	// re-runs (and re-logs) every settled group's extras. Extras are
	// created one at a time per group, so logged ones are contiguous in
	// rep; stop at the first gap.
	if cfg.CITarget > 0 {
		for _, g := range t.groups {
			for rep := len(g.jobs); rep < t.maxReps(g); rep++ {
				rec, ok := resumed[t.extraID(g, rep)]
				if !ok || !rec.OK() || rec.Seed != t.extraSeed(g, rep) {
					break
				}
				rec.Cached = true
				t.addLocked(&tableJob{id: rec.ID, index: g.first, seed: rec.Seed, state: jobDone, rec: &rec}, g)
			}
		}
	}
	// Groups revived whole from the store still owe their adaptive check.
	for _, g := range t.groups {
		t.checkGroupLocked(g)
	}
	t.maybeFinishLocked()
	return t, nil
}

// addLocked appends a job to the table, queueing it unless it is done.
func (t *Table) addLocked(j *tableJob, g *group) {
	j.group = g
	g.jobs = append(g.jobs, j)
	t.jobs = append(t.jobs, j)
	t.byID[j.id] = j
	if j.state != jobDone {
		t.pending = append(t.pending, j)
		t.open++
		t.cond.Broadcast()
	}
}

// Plan returns the table's plan.
func (t *Table) Plan() *Plan { return t.plan }

// Lease reaps expired leases, then hands the worker up to n pending
// jobs. A lease with a positive ttl expires unless renewed; ttl 0
// never expires.
func (t *Table) Lease(worker string, n int, ttl time.Duration) []Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reapLocked(time.Now())
	var out []Lease
	for len(out) < n {
		l, ok := t.leaseLocked(worker, ttl)
		if !ok {
			break
		}
		out = append(out, l)
	}
	return out
}

// leaseLocked hands out the oldest pending job.
func (t *Table) leaseLocked(worker string, ttl time.Duration) (Lease, bool) {
	for len(t.pending) > 0 {
		j := t.pending[0]
		t.pending = t.pending[1:]
		if j.state != jobPending {
			continue // a late record completed it while it was queued
		}
		j.state, j.worker, j.expiry = jobLeased, worker, time.Time{}
		if ttl > 0 {
			j.expiry = time.Now().Add(ttl)
		}
		j.attempt++
		t.logf("lease %s -> %s (attempt %d)", j.id, worker, j.attempt)
		return Lease{ID: j.id, Index: j.index, Seed: j.seed, Attempt: j.attempt - 1}, true
	}
	return Lease{}, false
}

// Renew extends the worker's leases on the listed jobs by ttl and
// returns the ones it no longer holds.
func (t *Table) Renew(worker string, ids []string, ttl time.Duration) (lost []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	t.reapLocked(now)
	for _, id := range ids {
		j, ok := t.byID[id]
		if !ok || j.state != jobLeased || j.worker != worker {
			lost = append(lost, id)
			continue
		}
		if ttl > 0 {
			j.expiry = now.Add(ttl)
		}
	}
	return lost
}

// Reap re-queues jobs whose leases expired by now.
func (t *Table) Reap(now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reapLocked(now)
}

// reapLocked re-queues expired leases at the front of the queue; a job
// leased too many times is recorded failed instead of looping forever.
func (t *Table) reapLocked(now time.Time) {
	for _, j := range t.jobs {
		if j.state != jobLeased || j.expiry.IsZero() || now.Before(j.expiry) {
			continue
		}
		if j.attempt >= t.cfg.MaxLeaseAttempts {
			spec := t.plan.Specs[j.index]
			rec := Record{
				ID: j.id, Experiment: spec.Experiment, Group: spec.Group, Seed: j.seed,
				Status:   StatusFailed,
				Error:    fmt.Sprintf("runner: lease expired %d times (last worker %s)", j.attempt, j.worker),
				Attempts: j.attempt,
			}
			t.giveups++
			t.logf("gave up on %s after %d leases", j.id, j.attempt)
			t.finishLocked(j, rec)
			continue
		}
		t.releases++
		t.logf("lease expired: %s (worker %s, attempt %d)", j.id, j.worker, j.attempt)
		j.state, j.worker = jobPending, ""
		// Front of the queue: an interrupted job is the oldest work.
		t.pending = append([]*tableJob{j}, t.pending...)
		t.cond.Broadcast()
	}
}

// Complete accepts one finished record and persists it. A record for a
// job already done (a lease that expired and was re-run elsewhere) is
// ignored: first writer wins. A late record for a job that was
// requeued is accepted, and the queued copy is skipped. accepted
// reports whether the record now stands for its job; a store error is
// returned with the record accepted all the same, and kept for Err.
func (t *Table) Complete(worker string, rec Record) (accepted bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.byID[rec.ID]
	if !ok {
		return false, fmt.Errorf("runner: unknown job %q", rec.ID)
	}
	if j.state == jobDone {
		t.logf("duplicate result for %s from %s ignored", rec.ID, worker)
		return false, nil
	}
	if rec.Seed != j.seed {
		return false, fmt.Errorf("runner: job %q: result seed %d, lease says %d", rec.ID, rec.Seed, j.seed)
	}
	t.logf("done %s from %s (%s)", rec.ID, worker, rec.Status)
	return true, t.finishLocked(j, rec)
}

// finishLocked persists a job's record, marks the job done with it and
// runs its group's adaptive check. A store error is returned, and the
// table's first is kept for Err.
func (t *Table) finishLocked(j *tableJob, rec Record) error {
	var err error
	if t.cfg.Store != nil {
		if err = t.cfg.Store.Put(rec); err != nil && t.storeErr == nil {
			t.storeErr = fmt.Errorf("runner: record %s: %w", rec.ID, err)
		}
	}
	j.state, j.worker, j.rec = jobDone, "", &rec
	t.open--
	t.checkGroupLocked(j.group)
	t.maybeFinishLocked()
	return err
}

// checkGroupLocked runs the adaptive-replication decision for a group:
// once its replications are all in, add one more until the CI target
// is met or the cap is reached.
func (t *Table) checkGroupLocked(g *group) {
	if g.settled {
		return
	}
	if t.cfg.CITarget <= 0 {
		g.settled = true
		return
	}
	var recs []Record
	for _, j := range g.jobs {
		if j.state != jobDone {
			return // replications still in flight; decide when they land
		}
		if j.rec.OK() {
			recs = append(recs, *j.rec)
		}
	}
	// Everything failed, the metric is absent, or the CI is tight
	// enough: nothing left to tighten.
	rel, _, ok := t.relCIHalfWidth(recs)
	if !ok || rel <= t.cfg.CITarget || len(g.jobs) >= t.maxReps(g) {
		g.settled = true
		return
	}
	rep := len(g.jobs)
	j := &tableJob{id: t.extraID(g, rep), index: g.first, seed: t.extraSeed(g, rep)}
	t.logf("adaptive: +1 replication for %s (rep %d, seed %d)", g.name, rep, j.seed)
	t.addLocked(j, g)
}

// maxReps resolves the replication cap for a group.
func (t *Table) maxReps(g *group) int {
	if t.cfg.MaxReps > 0 {
		return t.cfg.MaxReps
	}
	return 4 * g.base
}

// relCIHalfWidth computes the target metric's bootstrap-CI half-width
// relative to its mean over a group's successful records, reusing
// Aggregate so the numbers match what the final aggregation reports.
// ok is false when there are no records or the metric is absent.
func (t *Table) relCIHalfWidth(recs []Record) (rel, mean float64, ok bool) {
	groups := Aggregate(recs)
	if len(groups) != 1 {
		return 0, 0, false
	}
	st, ok := groups[0].Metrics[t.cfg.CIMetric]
	if !ok {
		return 0, 0, false
	}
	half := (st.CIHi - st.CILo) / 2
	if m := math.Abs(st.Mean); m > 0 {
		return half / m, st.Mean, true
	}
	return half, st.Mean, true
}

// extraID names a group's rep-th replication (base reps included in
// the numbering); extraSeed derives its seed from (plan seed -> first
// spec index -> replication number). Both are pure functions of the
// plan, so the k-th extra replication is identical in every run of the
// sweep — whatever order groups tighten in, and across resumes.
func (t *Table) extraID(g *group, rep int) string {
	return fmt.Sprintf("%s/extra-%s,rep=%d", t.plan.Name, g.name, rep)
}

func (t *Table) extraSeed(g *group, rep int) int64 {
	return randutil.DeriveSeed(randutil.DeriveSeed(t.plan.Seed, g.first), rep)
}

// maybeFinishLocked closes the done channel once no job is open. Every
// completion runs its group's adaptive check first, so an open count
// of zero also means every group is settled.
func (t *Table) maybeFinishLocked() {
	if t.open > 0 {
		return
	}
	select {
	case <-t.done:
	default:
		close(t.done)
		t.cond.Broadcast()
	}
}

// Done returns a channel closed when every job is done.
func (t *Table) Done() <-chan struct{} { return t.done }

// Err returns the first error persisting an accepted record: a record
// the table counts done that its store may not hold.
func (t *Table) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.storeErr
}

// Records returns every finished job's record: plan jobs in plan order,
// then adaptive extras in creation order.
func (t *Table) Records() []Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	recs := make([]Record, 0, len(t.jobs))
	for _, j := range t.jobs {
		if j.rec != nil {
			recs = append(recs, *j.rec)
		}
	}
	return recs
}

// cancel gives every unfinished job a canceled record, not persisted:
// what a sweep canceled before it ran them reports for those jobs.
func (t *Table) cancel(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, j := range t.jobs {
		if j.state != jobDone {
			spec := t.plan.Specs[j.index]
			j.state, j.rec = jobDone, &Record{
				ID: j.id, Experiment: spec.Experiment, Group: spec.Group,
				Seed: j.seed, Config: spec.Config,
				Status: StatusCanceled, Error: err.Error(),
			}
		}
	}
}

// TableStatus is a snapshot of a Table. sweepd's status endpoint
// serves it, hence the JSON names.
type TableStatus struct {
	Jobs    int `json:"jobs"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	// Releases counts expired, requeued leases; GiveUps jobs recorded
	// failed after MaxLeaseAttempts.
	Releases int64 `json:"-"`
	GiveUps  int64 `json:"-"`
	// Groups are sorted by name.
	Groups []TableGroup `json:"-"`
}

// TableGroup is one aggregation group of a TableStatus: replication
// progress and, with adaptive replication on, how tight the group's
// confidence interval currently is.
type TableGroup struct {
	Group string `json:"group"`
	// OK and Failed count finished replications; Total counts every job
	// created for the group so far (including leased/pending extras).
	OK     int `json:"ok"`
	Failed int `json:"failed,omitempty"`
	Total  int `json:"total"`
	// Mean and RelCIHalfWidth describe the adaptive target metric: the
	// bootstrap CI half-width of the mean, relative to the mean.
	Mean           float64 `json:"mean,omitempty"`
	RelCIHalfWidth float64 `json:"rel_ci_half_width,omitempty"`
	// Settled reports the group needs no more replications (CI under
	// target, metric absent, or replication cap reached).
	Settled bool `json:"settled"`
	// Records holds the finished replications' records.
	Records []Record `json:"-"`
}

// Status returns a snapshot of the table.
func (t *Table) Status() TableStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TableStatus{Jobs: len(t.jobs), Releases: t.releases, GiveUps: t.giveups}
	for _, j := range t.jobs {
		switch j.state {
		case jobPending:
			st.Pending++
		case jobLeased:
			st.Leased++
		case jobDone:
			st.Done++
			if !j.rec.OK() {
				st.Failed++
			}
		}
	}
	for _, g := range t.groups {
		tg := TableGroup{Group: g.name, Total: len(g.jobs), Settled: g.settled}
		var ok []Record
		for _, j := range g.jobs {
			if j.rec == nil {
				continue
			}
			tg.Records = append(tg.Records, *j.rec)
			if j.rec.OK() {
				ok = append(ok, *j.rec)
			} else {
				tg.Failed++
			}
		}
		if tg.OK = len(ok); t.cfg.CITarget > 0 && tg.OK >= 2 {
			tg.RelCIHalfWidth, tg.Mean, _ = t.relCIHalfWidth(ok)
		}
		st.Groups = append(st.Groups, tg)
	}
	sort.Slice(st.Groups, func(a, b int) bool { return st.Groups[a].Group < st.Groups[b].Group })
	return st
}

// Work runs n in-process workers on the table until every job is done,
// adaptive extras included, or ctx is canceled. A worker with nothing
// to lease blocks on the table until a job is queued or the sweep
// finishes. Workers are named local-0 ... local-<n-1>; their leases
// never expire. Each record a worker lands is passed to done when it is
// non-nil. Work returns Err.
func (t *Table) Work(ctx context.Context, n int, opt ExecOptions, done func(Record)) error {
	stop := context.AfterFunc(ctx, func() {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	})
	defer stop()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("local-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				l, ok := t.next(ctx, name)
				if !ok {
					return
				}
				rec := Execute(ctx, t.plan.Specs[l.Index], l.Seed, opt)
				rec.ID = l.ID
				if rec.Status == StatusCanceled {
					return // the sweep is canceled; the job stays unfinished
				}
				if accepted, _ := t.Complete(name, rec); accepted && done != nil {
					done(rec)
				}
			}
		}()
	}
	wg.Wait()
	return t.Err()
}

// next blocks until a job is leasable, then leases it (never
// expiring); false once the sweep is finished or ctx is canceled.
func (t *Table) next(ctx context.Context, worker string) (Lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for ctx.Err() == nil && t.open > 0 {
		if l, ok := t.leaseLocked(worker, 0); ok {
			return l, true
		}
		t.cond.Wait()
	}
	return Lease{}, false
}

// logf writes one log line when Log is set.
func (t *Table) logf(format string, args ...any) {
	if t.cfg.Log != nil {
		fmt.Fprintf(t.cfg.Log, "runner: "+format+"\n", args...)
	}
}

// CapWorkers bounds n concurrent jobs of jobShards simulation shards
// each so that n x jobShards stays within GOMAXPROCS instead of
// silently oversubscribing the machine, and logs an adjustment to log
// (when non-nil). Every place that starts in-process workers or work
// slots applies it.
func CapWorkers(n, jobShards int, log io.Writer) int {
	if jobShards <= 1 {
		return n
	}
	procs := runtime.GOMAXPROCS(0)
	fit := max(procs/jobShards, 1)
	if n <= fit {
		return n
	}
	if log != nil {
		fmt.Fprintf(log, "runner: capping workers %d -> %d (%d shards/job, GOMAXPROCS %d)\n",
			n, fit, jobShards, procs)
	}
	return fit
}
