package sweepd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abm/internal/runner"
)

// syntheticPlan builds a plan of instant deterministic jobs: the result
// is a pure function of the seed, so any execution order and any
// worker topology must aggregate identically.
func syntheticPlan(name string, jobs int, calls *atomic.Int64) *runner.Plan {
	plan := &runner.Plan{Name: name, Seed: 7}
	for i := 0; i < jobs; i++ {
		group := fmt.Sprintf("g%d", i%3)
		plan.Add(runner.Spec{
			ID:         fmt.Sprintf("%s/%04d-%s", name, i, group),
			Experiment: name,
			Group:      group,
			Run: func(ctx context.Context, seed int64) (runner.Result, error) {
				if calls != nil {
					calls.Add(1)
				}
				return syntheticResult(seed), nil
			},
		})
	}
	return plan
}

// syntheticResult derives a high-variance metric from the seed.
func syntheticResult(seed int64) runner.Result {
	return runner.Result{
		Events: uint64(seed),
		Extra:  map[string]float64{"val": float64(seed % 977)},
	}
}

// aggBytes renders records the way cmd/sweep persists them: the
// aggregate JSON plus the TSV table. Byte equality of this is the
// equivalence the service guarantees.
func aggBytes(t *testing.T, recs []runner.Record) string {
	t.Helper()
	groups := runner.Aggregate(recs)
	data, err := json.MarshalIndent(groups, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n---\n" + runner.FormatGroups(groups)
}

// runWorkers works the coordinator's table with n in-process workers —
// the path `sweep serve -workers n` takes — and waits for the sweep to
// finish.
func runWorkers(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	work := make(chan error, 1)
	go func() { work <- c.Table().Work(ctx, n, runner.ExecOptions{}, nil) }()
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("sweep did not finish: %v", err)
	}
	if err := <-work; err != nil {
		t.Fatal(err)
	}
}

// runRemote works the coordinator with n remote workers of the given
// slots over a real HTTP round trip and waits for the sweep to finish.
// Workers of a grid coordinator fetch PlanInfo and rebuild the plan, as
// a worker on another machine does; synthetic plans cannot travel as
// grids, so workers of a plan-only coordinator share its plan.
func runRemote(t *testing.T, c *Coordinator, n, slots int) {
	t.Helper()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	var plan *runner.Plan
	if c.cfg.Grid == nil {
		plan = c.Table().Plan()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{
			Dispatcher: NewClient(srv.URL),
			Name:       fmt.Sprintf("remote%d", i),
			Slots:      slots,
			plan:       plan,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("sweep did not finish: %v", err)
	}
	wg.Wait()
}

// TestCoordinatorMatchesPool is the core determinism contract on
// synthetic jobs: coordinator + remote workers over HTTP and the
// in-process pool must aggregate byte-identically.
func TestCoordinatorMatchesPool(t *testing.T) {
	poolRecs, err := (&runner.Pool{Workers: 4}).Run(t.Context(), syntheticPlan("eq", 12, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := aggBytes(t, poolRecs)

	c, err := NewCoordinator(Config{
		Plan:        syntheticPlan("eq", 12, nil),
		TableConfig: runner.TableConfig{Store: testLog(t)},
	})
	if err != nil {
		t.Fatal(err)
	}
	runRemote(t, c, 3, 1)
	if got := aggBytes(t, c.Table().Records()); got != want {
		t.Fatalf("aggregate mismatch\npool:\n%s\nsweepd:\n%s", want, got)
	}
	// And the durable log replays to the same aggregate.
	done, err := c.cfg.Store.Completed()
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 12 {
		t.Fatalf("log holds %d records, want 12", len(done))
	}
}

// TestLeaseExpiryAndWorkerChurn kills a worker mid-job: its leased job
// must be re-leased after the TTL and the final aggregate must be
// byte-identical to an uninterrupted run.
func TestLeaseExpiryAndWorkerChurn(t *testing.T) {
	const blockedJob = "churn/0004-g1"

	makePlan := func(blockOnce bool) *runner.Plan {
		var once sync.Once
		block := make(chan struct{})
		plan := syntheticPlan("churn", 9, nil)
		if !blockOnce {
			return plan
		}
		for i := range plan.Specs {
			spec := &plan.Specs[i]
			if spec.ID != blockedJob {
				continue
			}
			inner := spec.Run
			spec.Run = func(ctx context.Context, seed int64) (runner.Result, error) {
				var first bool
				once.Do(func() { first = true })
				if first {
					// Simulate the job the dying worker was holding:
					// hang until the test tears the worker down.
					<-ctx.Done()
					<-block // released at cleanup; result is discarded
				}
				return inner(ctx, seed)
			}
		}
		t.Cleanup(func() { close(block) })
		return plan
	}

	poolRecs, err := (&runner.Pool{Workers: 4}).Run(t.Context(), makePlan(false))
	if err != nil {
		t.Fatal(err)
	}
	want := aggBytes(t, poolRecs)

	c, err := NewCoordinator(Config{
		Plan:        makePlan(true),
		LeaseTTL:    150 * time.Millisecond,
		TableConfig: runner.TableConfig{MaxLeaseAttempts: 10, Store: testLog(t)},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker: runs until it blocks on the poisoned job, then
	// its context is killed once the coordinator shows a stuck lease.
	doomedCtx, killWorker := context.WithCancel(context.Background())
	defer killWorker()
	doomed := &Worker{Dispatcher: c, Name: "doomed", plan: c.Table().Plan()}
	doomedDone := make(chan struct{})
	go func() {
		defer close(doomedDone)
		doomed.Run(doomedCtx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		// A heartbeat that loses nothing: the doomed worker holds the job.
		if hb, _ := c.Heartbeat("doomed", []string{blockedJob}); len(hb.Lost) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never leased the poisoned job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	killWorker()
	<-doomedDone

	// A healthy in-process worker joins; after the TTL the coordinator
	// re-queues the orphaned job, the worker leases it and the sweep
	// completes.
	runWorkers(t, c, 1)

	if n := c.Table().Status().Releases; n < 1 {
		t.Fatalf("%d expired leases, want >= 1 (re-lease after expiry)", n)
	}
	if got := aggBytes(t, c.Table().Records()); got != want {
		t.Fatalf("aggregate after churn differs from uninterrupted run\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestLeaseGiveUp bounds re-leasing: a job whose every lease expires is
// eventually recorded failed instead of looping forever.
func TestLeaseGiveUp(t *testing.T) {
	c, err := NewCoordinator(Config{
		Plan:        syntheticPlan("giveup", 1, nil),
		LeaseTTL:    20 * time.Millisecond,
		TableConfig: runner.TableConfig{MaxLeaseAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, err := c.Lease("ghost", 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Leases) != 1 {
			t.Fatalf("lease %d: got %d leases", i, len(resp.Leases))
		}
		time.Sleep(30 * time.Millisecond) // let it expire, never heartbeat
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("coordinator never gave up: %v", err)
	}
	recs := c.Table().Records()
	if len(recs) != 1 || recs[0].Status != runner.StatusFailed ||
		!strings.Contains(recs[0].Error, "lease expired") {
		t.Fatalf("want a lease-expiry failure record, got %+v", recs)
	}
}

// TestLateCompleteAfterRequeue covers the race where a lease expires,
// the job is requeued, and the original worker's result then arrives
// late: the result must be accepted and the job pulled back out of the
// pending queue — not leased (and re-run) a second time, and never
// later overwritten by a synthesized failure.
func TestLateCompleteAfterRequeue(t *testing.T) {
	plan := syntheticPlan("late", 1, nil)
	c, err := NewCoordinator(Config{
		Plan:        plan,
		LeaseTTL:    20 * time.Millisecond,
		TableConfig: runner.TableConfig{MaxLeaseAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Lease("a", 1)
	if err != nil || len(resp.Leases) != 1 {
		t.Fatalf("lease: %v %+v", err, resp)
	}
	lease := resp.Leases[0]

	// Let the lease expire and reap (Heartbeat reaps as a side effect).
	time.Sleep(30 * time.Millisecond)
	if _, err := c.Heartbeat("other", nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Table().Status(); st.Pending != 1 || st.Leased != 0 {
		t.Fatalf("job not requeued after expiry: %+v", st)
	}

	// The late result from the original worker lands.
	rec := runner.Execute(context.Background(), plan.Specs[0], lease.Seed, runner.ExecOptions{})
	if err := c.Complete("a", rec, nil); err != nil {
		t.Fatal(err)
	}
	resp2, err := c.Lease("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Leases) != 0 {
		t.Fatalf("done job leased again: %+v", resp2.Leases)
	}
	if !resp2.Done {
		t.Fatal("sweep not done after the late complete")
	}
	recs := c.Table().Records()
	if len(recs) != 1 || !recs[0].OK() {
		t.Fatalf("want one successful record, got %+v", recs)
	}
}

// failingSink is a record store whose every Put fails.
type failingSink struct{}

var errSinkFull = errors.New("disk full")

func (failingSink) Put(rec runner.Record) error                  { return fmt.Errorf("put %s: %w", rec.ID, errSinkFull) }
func (failingSink) Completed() (map[string]runner.Record, error) { return nil, nil }

// TestCompleteStoreErrorFailsWait: a record the table accepts but its
// store fails to persist is reported to the worker by Complete, and —
// because the worker's retry is a duplicate the table ignores — to the
// coordinator's owner by Wait once the table is done.
func TestCompleteStoreErrorFailsWait(t *testing.T) {
	plan := syntheticPlan("putfail", 2, nil)
	c, err := NewCoordinator(Config{Plan: plan, TableConfig: runner.TableConfig{Store: failingSink{}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Lease("w", 2)
	if err != nil || len(resp.Leases) != 2 {
		t.Fatalf("lease: %v %+v", err, resp)
	}
	for _, l := range resp.Leases {
		rec := runner.Execute(context.Background(), plan.Specs[l.Index], l.Seed, runner.ExecOptions{})
		rec.ID = l.ID
		if err := c.Complete("w", rec, nil); !errors.Is(err, errSinkFull) {
			t.Fatalf("Complete(%s) = %v, want the store error", l.ID, err)
		}
		if err := c.Complete("w", rec, nil); err != nil {
			t.Fatalf("retried Complete(%s) = %v, want nil (a duplicate)", l.ID, err)
		}
	}
	err = c.Wait(t.Context())
	if !errors.Is(err, errSinkFull) || !strings.Contains(err.Error(), resp.Leases[0].ID) {
		t.Fatalf("Wait = %v, want the first record's store error", err)
	}
}

// TestGiveUpStoreErrorFailsWait: the failed record the table writes
// for a job whose every lease expired is a record like any other, so a
// store that cannot persist it fails Wait instead of letting the sweep
// finish with the record missing.
func TestGiveUpStoreErrorFailsWait(t *testing.T) {
	c, err := NewCoordinator(Config{
		Plan:        syntheticPlan("giveupfail", 1, nil),
		LeaseTTL:    10 * time.Millisecond,
		TableConfig: runner.TableConfig{MaxLeaseAttempts: 1, Store: failingSink{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Lease("ghost", 1)
	if err != nil || len(resp.Leases) != 1 {
		t.Fatalf("lease: %v %+v", err, resp)
	}
	ctx, cancel := context.WithTimeout(t.Context(), 5*time.Second)
	defer cancel()
	err = c.Wait(ctx) // its ticker reaps the expired lease and gives up
	if !errors.Is(err, errSinkFull) || !strings.Contains(err.Error(), resp.Leases[0].ID) {
		t.Fatalf("Wait = %v, want the give-up record's store error", err)
	}
	if recs := c.Table().Records(); len(recs) != 1 || recs[0].Status != runner.StatusFailed {
		t.Fatalf("want the give-up record in the table, got %+v", recs)
	}
}

// TestHeartbeatKeepsLease proves the opposite of expiry: a slow worker
// that heartbeats keeps its lease past several TTLs.
func TestHeartbeatKeepsLease(t *testing.T) {
	c, err := NewCoordinator(Config{
		Plan:     syntheticPlan("hb", 1, nil),
		LeaseTTL: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Lease("slow", 1)
	if err != nil || len(resp.Leases) != 1 {
		t.Fatalf("lease: %v %+v", err, resp)
	}
	id := resp.Leases[0].ID
	for i := 0; i < 6; i++ {
		time.Sleep(20 * time.Millisecond)
		hb, err := c.Heartbeat("slow", []string{id})
		if err != nil {
			t.Fatal(err)
		}
		if len(hb.Lost) != 0 {
			t.Fatalf("heartbeat %d lost the lease: %v", i, hb.Lost)
		}
	}
	rec := runner.Execute(context.Background(), c.Table().Plan().Specs[0], resp.Leases[0].Seed, runner.ExecOptions{})
	if err := c.Complete("slow", rec, nil); err != nil {
		t.Fatal(err)
	}
	if !c.Status().Finished {
		t.Fatal("sweep not finished after the slow job completed")
	}
}

// TestCoordinatorResume seeds the store with half the records: only the
// other half may run, and the final aggregate still matches a full run.
func TestCoordinatorResume(t *testing.T) {
	full, err := (&runner.Pool{Workers: 2}).Run(t.Context(), syntheticPlan("res", 8, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := aggBytes(t, full)

	store := testLog(t)
	for _, rec := range full[:4] {
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	var calls atomic.Int64
	c, err := NewCoordinator(Config{Plan: syntheticPlan("res", 8, &calls), TableConfig: runner.TableConfig{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, c, 2)
	if n := calls.Load(); n != 4 {
		t.Fatalf("resume ran %d jobs, want 4", n)
	}
	if got := aggBytes(t, c.Table().Records()); got != want {
		t.Fatalf("resumed aggregate differs\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestCoordinatorResumeReseeds logs a full sweep, then resumes the same
// job IDs under another plan seed: no logged record carries the new
// derived seeds, so every job must run again.
func TestCoordinatorResumeReseeds(t *testing.T) {
	store := testLog(t)
	old, err := (&runner.Pool{Workers: 2, Store: store}).Run(t.Context(), syntheticPlan("reseed", 6, nil))
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	plan := syntheticPlan("reseed", 6, &calls)
	plan.Seed++
	c, err := NewCoordinator(Config{Plan: plan, TableConfig: runner.TableConfig{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, c, 2)
	if n := calls.Load(); n != 6 {
		t.Fatalf("reseeded resume ran %d jobs, want 6", n)
	}
	for i, rec := range c.Table().Records() {
		if rec.Cached || rec.Seed != plan.SeedOf(i) || rec.Seed == old[i].Seed {
			t.Fatalf("job %d served at seed %d (plan seed gives %d)", i, rec.Seed, plan.SeedOf(i))
		}
	}
}

// TestAdaptiveReplication drives a high-variance group against a tight
// CI target: the coordinator must keep adding deterministic extra
// replications until the cap, and a second identical run must create
// exactly the same extra jobs with the same seeds.
func TestAdaptiveReplication(t *testing.T) {
	run := func() (map[string]int64, int) {
		c, err := NewCoordinator(Config{
			Plan: syntheticPlan("adapt", 6, nil), // 3 groups x 2 reps
			TableConfig: runner.TableConfig{
				CITarget: 1e-6, // unreachably tight
				CIMetric: "val",
				MaxReps:  5,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		runWorkers(t, c, 2)
		extras := make(map[string]int64)
		for _, rec := range c.Table().Records() {
			if strings.HasPrefix(rec.ID, "adapt/extra-") {
				extras[rec.ID] = rec.Seed
			}
		}
		return extras, len(c.Table().Records())
	}

	extras, total := run()
	// 3 groups, 2 base reps each, cap 5: every group gains 3 extras.
	if len(extras) != 9 || total != 15 {
		t.Fatalf("extras = %d (records %d), want 9 extras / 15 records: %v", len(extras), total, extras)
	}
	extras2, total2 := run()
	if total2 != total {
		t.Fatalf("second run made %d records, first %d", total2, total)
	}
	for id, seed := range extras {
		if extras2[id] != seed {
			t.Fatalf("extra %s seed changed across runs: %d vs %d", id, seed, extras2[id])
		}
	}

	// A loose target stays at the base replication count.
	c, err := NewCoordinator(Config{
		Plan:        syntheticPlan("adapt", 6, nil),
		TableConfig: runner.TableConfig{CITarget: 1e9, CIMetric: "val", MaxReps: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, c, 2)
	if n := len(c.Table().Records()); n != 6 {
		t.Fatalf("loose target ran %d records, want 6", n)
	}
}

// TestResumeRevivesAdaptiveExtras restarts an adaptive sweep against
// its own record log: the extra-replication records (deterministic IDs
// and seeds) must be revived alongside the base jobs, so nothing
// re-runs and the aggregate is unchanged.
func TestResumeRevivesAdaptiveExtras(t *testing.T) {
	mkConfig := func(plan *runner.Plan, store *runner.Store) Config {
		return Config{Plan: plan, TableConfig: runner.TableConfig{Store: store, CITarget: 1e-6, CIMetric: "val", MaxReps: 5}}
	}
	store := testLog(t)
	c1, err := NewCoordinator(mkConfig(syntheticPlan("rev", 6, nil), store))
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, c1, 2)
	want := aggBytes(t, c1.Table().Records())

	var calls atomic.Int64
	c2, err := NewCoordinator(mkConfig(syntheticPlan("rev", 6, &calls), store))
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Status().Finished {
		t.Fatal("fully replayed adaptive sweep should be finished at construction")
	}
	runWorkers(t, c2, 2)
	if n := calls.Load(); n != 0 {
		t.Fatalf("resume re-ran %d jobs, want 0", n)
	}
	if got := aggBytes(t, c2.Table().Records()); got != want {
		t.Fatalf("resumed adaptive aggregate differs\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestWorkerHeartbeatShortTTL runs a job several times longer than the
// lease TTL through a remote worker: the worker must pace heartbeats
// from the TTL the coordinator sends, so the lease is renewed and the
// job runs exactly once.
func TestWorkerHeartbeatShortTTL(t *testing.T) {
	var calls atomic.Int64
	plan := &runner.Plan{Name: "ttl", Seed: 7}
	plan.Add(runner.Spec{
		ID: "ttl/slow", Experiment: "ttl", Group: "g",
		Run: func(ctx context.Context, seed int64) (runner.Result, error) {
			calls.Add(1)
			select {
			case <-ctx.Done():
				return runner.Result{}, ctx.Err()
			case <-time.After(time.Second):
			}
			return syntheticResult(seed), nil
		},
	})
	c, err := NewCoordinator(Config{Plan: plan, LeaseTTL: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	runRemote(t, c, 1, 1)
	if n := calls.Load(); n != 1 {
		t.Fatalf("short-TTL job ran %d times, want 1 (heartbeats must hold the lease)", n)
	}
	if n := c.Table().Status().Releases; n != 0 {
		t.Fatalf("short-TTL lease expired %d times, want 0", n)
	}
}

// TestHTTPDispatcher runs the whole lease/heartbeat/result protocol
// over a real HTTP round trip and checks the aggregate still matches
// the pool.
func TestHTTPDispatcher(t *testing.T) {
	poolRecs, err := (&runner.Pool{Workers: 4}).Run(t.Context(), syntheticPlan("http", 10, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := aggBytes(t, poolRecs)

	c, err := NewCoordinator(Config{Plan: syntheticPlan("http", 10, nil)})
	if err != nil {
		t.Fatal(err)
	}
	runRemote(t, c, 2, 2)
	if got := aggBytes(t, c.Table().Records()); got != want {
		t.Fatalf("HTTP aggregate mismatch\nwant:\n%s\ngot:\n%s", want, got)
	}

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	// Status over the wire reflects the finished sweep.
	st, err := NewClient(srv.URL).Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Finished || st.Done != 10 {
		t.Fatalf("status: %+v", st)
	}

	// A plan-only coordinator refuses PlanInfo with a useful error.
	if _, err := NewClient(srv.URL).PlanInfo(); err == nil {
		t.Fatal("PlanInfo on a plan-only coordinator must fail")
	}
}
