package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"abm/internal/metrics"
)

// fakeJob returns a RunFunc whose result is a pure function of the
// derived seed, standing in for a deterministic simulation.
func fakeJob(calls *atomic.Int64) RunFunc {
	return func(_ context.Context, seed int64) (Result, error) {
		if calls != nil {
			calls.Add(1)
		}
		return Result{
			Summary: metrics.Summary{
				P99IncastSlowdown: float64(seed%1000) / 10,
				Flows:             int(seed % 97),
			},
			Events: uint64(seed),
			Extra:  map[string]float64{"seed_mod": float64(seed % 13)},
		}, nil
	}
}

func fakePlan(n int, calls *atomic.Int64) *Plan {
	p := &Plan{Name: "fake", Seed: 42}
	for i := 0; i < n; i++ {
		p.Add(Spec{
			Experiment: "fake",
			Group:      fmt.Sprintf("g%d", i%4),
			Run:        fakeJob(calls),
		})
	}
	return p
}

func TestPoolRunsEveryJob(t *testing.T) {
	var calls atomic.Int64
	plan := fakePlan(50, &calls)
	recs, err := (&Pool{Workers: 8}).Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 50 || calls.Load() != 50 {
		t.Fatalf("records=%d calls=%d, want 50/50", len(recs), calls.Load())
	}
	for i, r := range recs {
		if !r.OK() || r.Attempts != 1 {
			t.Fatalf("record %d: %+v", i, r)
		}
		if r.ID != plan.Specs[i].ID {
			t.Fatalf("record %d out of order: %s vs %s", i, r.ID, plan.Specs[i].ID)
		}
		if r.Result == nil || r.Result.Events != uint64(r.Seed) {
			t.Fatalf("record %d result mismatch: %+v", i, r)
		}
	}
	if n := len(Failed(recs)); n != 0 {
		t.Fatalf("failed=%d", n)
	}
}

// TestPoolJobShardsCapsWorkers drives a pool whose jobs each claim
// twice the machine (JobShards = 2 x GOMAXPROCS): the worker count
// must clamp to one — observed as at most one job in flight — and the
// adjustment must be logged to Progress.
func TestPoolJobShardsCapsWorkers(t *testing.T) {
	var inFlight, peak atomic.Int64
	plan := &Plan{Name: "shards", Seed: 1}
	for i := 0; i < 12; i++ {
		plan.Add(Spec{Run: func(context.Context, int64) (Result, error) {
			if n := inFlight.Add(1); n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(2 * time.Millisecond)
			inFlight.Add(-1)
			return Result{}, nil
		}})
	}
	var progress strings.Builder
	pool := &Pool{Workers: 8, JobShards: 2 * runtime.GOMAXPROCS(0), Progress: &progress}
	if _, err := pool.Run(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 1 {
		t.Fatalf("%d jobs in flight at once; shards x workers exceeds GOMAXPROCS", peak.Load())
	}
	if !strings.Contains(progress.String(), "capping workers 8 -> 1") {
		t.Fatalf("worker cap not logged:\n%s", progress.String())
	}
}

func TestSeedDerivation(t *testing.T) {
	plan := &Plan{Name: "p", Seed: 7}
	for i := 0; i < 100; i++ {
		plan.Add(Spec{Run: fakeJob(nil)})
	}
	seen := map[int64]bool{}
	for i := range plan.Specs {
		s := plan.SeedOf(i)
		if s <= 0 {
			t.Fatalf("seed %d not positive: %d", i, s)
		}
		if seen[s] {
			t.Fatalf("duplicate derived seed at %d", i)
		}
		seen[s] = true
		if s != plan.SeedFor(i) {
			t.Fatal("SeedOf disagrees with SeedFor")
		}
	}
	// Explicit seeds pass through untouched.
	plan.Specs[3].Seed = 1234
	if plan.SeedOf(3) != 1234 {
		t.Fatal("explicit seed not honored")
	}
	// A different plan seed yields different derived seeds.
	other := &Plan{Name: "p", Seed: 8}
	other.Add(Spec{Run: fakeJob(nil)})
	if other.SeedOf(0) == plan.SeedFor(0) {
		t.Fatal("plan seed does not influence derivation")
	}
}

func TestPoolPanicCapture(t *testing.T) {
	plan := fakePlan(10, nil)
	plan.Specs[4].Run = func(context.Context, int64) (Result, error) {
		panic("injected crash")
	}
	recs, err := (&Pool{Workers: 4}).Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	bad := recs[4]
	if bad.Status != StatusPanic {
		t.Fatalf("status = %s, want panic", bad.Status)
	}
	if !strings.Contains(bad.Error, "injected crash") || !strings.Contains(bad.Stack, "goroutine") {
		t.Fatalf("panic record missing detail: err=%q stack=%q", bad.Error, bad.Stack)
	}
	if bad.Attempts != 1 {
		t.Fatalf("panics must not be retried, attempts=%d", bad.Attempts)
	}
	for i, r := range recs {
		if i != 4 && !r.OK() {
			t.Fatalf("panic killed sibling job %d: %+v", i, r)
		}
	}
}

func TestPoolTimeout(t *testing.T) {
	plan := fakePlan(4, nil)
	release := make(chan struct{})
	defer close(release)
	for i := range plan.Specs {
		plan.Specs[i].Timeout = 30 * time.Millisecond
	}
	plan.Specs[1].Run = func(context.Context, int64) (Result, error) {
		<-release // hung simulation
		return Result{}, nil
	}
	start := time.Now()
	recs, err := (&Pool{Workers: 2, Retries: 3}).Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := recs[1].Status; got != StatusTimeout {
		t.Fatalf("status = %s, want timeout", got)
	}
	if recs[1].Attempts != 1 {
		t.Fatalf("timeouts must not be retried, attempts=%d", recs[1].Attempts)
	}
	if !strings.Contains(recs[1].Error, "deadline") {
		t.Fatalf("error = %q", recs[1].Error)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout did not bound the sweep")
	}
	plan2 := fakePlan(1, nil)
	plan2.Specs[0].Timeout = 10 * time.Millisecond
	plan2.Specs[0].Run = func(ctx context.Context, _ int64) (Result, error) {
		<-ctx.Done() // a ctx-aware job sees the deadline too
		return Result{}, ctx.Err()
	}
	recs2, err := (&Pool{Workers: 1}).Run(context.Background(), plan2)
	if err != nil {
		t.Fatal(err)
	}
	if recs2[0].Status != StatusTimeout {
		t.Fatalf("spec timeout not honored: %+v", recs2[0])
	}
}

func TestPoolRetryWithBackoff(t *testing.T) {
	var tries atomic.Int64
	plan := &Plan{Name: "retry", Seed: 1}
	plan.Add(Spec{Run: func(_ context.Context, seed int64) (Result, error) {
		if tries.Add(1) < 3 {
			return Result{}, errors.New("transient")
		}
		return Result{Events: uint64(seed)}, nil
	}})
	recs, err := (&Pool{Workers: 1, Retries: 3, Backoff: time.Millisecond}).
		Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !recs[0].OK() || recs[0].Attempts != 3 {
		t.Fatalf("record = %+v, want ok after 3 attempts", recs[0])
	}
	if recs[0].Error != "" || recs[0].Stack != "" {
		t.Fatalf("stale failure detail on success: %+v", recs[0])
	}

	// Exhausted retries leave a failed record with the attempt count.
	plan2 := &Plan{Name: "retry2"}
	plan2.Add(Spec{Run: func(context.Context, int64) (Result, error) {
		return Result{}, errors.New("permanent")
	}})
	recs2, err := (&Pool{Workers: 1, Retries: 2, Backoff: time.Millisecond}).
		Run(context.Background(), plan2)
	if err != nil {
		t.Fatal(err)
	}
	if recs2[0].Status != StatusFailed || recs2[0].Attempts != 3 {
		t.Fatalf("record = %+v, want failed after 3 attempts", recs2[0])
	}
}

func TestPoolCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	plan := &Plan{Name: "cancel"}
	for i := 0; i < 64; i++ {
		plan.Add(Spec{Run: func(context.Context, int64) (Result, error) {
			if started.Add(1) == 2 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return Result{}, nil
		}})
	}
	recs, err := (&Pool{Workers: 2}).Run(ctx, plan)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	canceled := 0
	for _, r := range recs {
		if r.Status == "" {
			t.Fatal("record with empty status")
		}
		if r.Status == StatusCanceled {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("no canceled records despite early cancel")
	}
}

func TestPlanValidate(t *testing.T) {
	p := &Plan{Name: "v"}
	p.Add(Spec{ID: "a", Run: fakeJob(nil)})
	p.Add(Spec{ID: "a", Run: fakeJob(nil)})
	if _, err := (&Pool{}).Run(context.Background(), p); err == nil {
		t.Fatal("duplicate IDs not rejected")
	}
	p2 := &Plan{Name: "v2"}
	p2.Add(Spec{ID: "a"})
	if err := p2.Validate(); err == nil {
		t.Fatal("nil Run not rejected")
	}
}

// TestPoolResumeRerunsOnSeedChange: the store holds a seed-1 record
// under the same ID as a job pinned at seed 2. Resume must re-run the
// job rather than serve the seed-1 numbers, and must still serve a job
// whose logged seed matches.
func TestPoolResumeRerunsOnSeedChange(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var calls atomic.Int64
	plan := func(seed int64) *Plan {
		p := &Plan{Name: "pinned"}
		p.Add(Spec{ID: "pinned/fig", Seed: seed, Run: fakeJob(&calls)})
		p.Add(Spec{ID: "pinned/fixed", Seed: 7, Run: fakeJob(&calls)})
		return p
	}
	pool := &Pool{Workers: 1, Store: st}
	if _, err := pool.Run(context.Background(), plan(1)); err != nil {
		t.Fatal(err)
	}
	recs, err := pool.Run(context.Background(), plan(2))
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("%d job runs, want 3 (the seed-2 job re-runs, the unchanged one is served)", n)
	}
	if r := recs[0]; r.Cached || r.Seed != 2 || r.Result.Events != 2 {
		t.Fatalf("seed-2 job served from a seed-1 record: %+v", r)
	}
	if !recs[1].Cached {
		t.Fatalf("unchanged job re-ran: %+v", recs[1])
	}
}
