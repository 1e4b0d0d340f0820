package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// errTimeout marks a per-job deadline expiry (distinct from sweep-level
// cancellation, which is never retried and aborts dispatch).
var errTimeout = errors.New("job deadline exceeded")

// RecordSink is where a pool persists records as jobs complete and
// where it reads previously-completed jobs from when resuming. *Store
// (one fsync per record) is the implementation; internal/sweepd wraps
// the same log with batched commits.
type RecordSink interface {
	// Put persists one finished record durably.
	Put(Record) error
	// Completed returns the latest successful record of every job the
	// sink already holds, keyed by job ID; on resume a listed job whose
	// record carries the job's seed is skipped.
	Completed() (map[string]Record, error)
}

// Pool executes a Plan's jobs across a fixed set of worker goroutines.
// Each job runs with an optional wall-clock timeout and panic recovery:
// a crashing or hung simulation marks its own record failed and never
// takes the sweep down. Errors (but not panics or timeouts, which are
// deterministic) are retried up to Retries times with exponential
// backoff. The zero value is a working pool with NumCPU workers, no
// timeout, no retries and no persistence.
type Pool struct {
	// Workers is the number of concurrent jobs; <=0 means NumCPU.
	Workers int
	// JobShards is the number of simulation shards each job itself runs
	// on (its internal goroutine fan-out); <=1 means jobs are serial.
	// When >1, Run caps the worker count so that workers x JobShards
	// stays within GOMAXPROCS instead of silently oversubscribing the
	// machine, and logs the adjustment to Progress.
	JobShards int
	// Timeout is the default per-job wall-clock limit; 0 means none.
	// A simulation cannot be preempted, so on expiry the job goroutine
	// is abandoned (it still counts against no worker slot) and the job
	// is recorded as StatusTimeout.
	Timeout time.Duration
	// Retries is how many times a job returning an error is re-run.
	Retries int
	// Backoff is the first retry delay, doubling per attempt; <=0 means
	// 100ms.
	Backoff time.Duration
	// Progress, when non-nil, receives live completion/ETA lines
	// (typically os.Stderr).
	Progress io.Writer
	// Store, when non-nil, persists every record as it completes and
	// lets already-completed jobs be skipped on a re-run (resume).
	// Assign a concrete value only when it is non-nil: a typed-nil
	// *Store inside the interface would read as "persistence on".
	Store RecordSink
}

// Run executes the plan and returns one record per job, in plan order.
// The error reports setup problems (invalid plan, unreadable store) or
// context cancellation; per-job failures are carried in the records —
// check Failed on the result.
func (p *Pool) Run(ctx context.Context, plan *Plan) ([]Record, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if p.JobShards > 1 && workers > 1 {
		maxWorkers := runtime.GOMAXPROCS(0) / p.JobShards
		if maxWorkers < 1 {
			maxWorkers = 1
		}
		if workers > maxWorkers {
			if p.Progress != nil {
				fmt.Fprintf(p.Progress,
					"runner: capping workers %d -> %d (%d shards/job, GOMAXPROCS %d)\n",
					workers, maxWorkers, p.JobShards, runtime.GOMAXPROCS(0))
			}
			workers = maxWorkers
		}
	}
	var done map[string]Record
	if p.Store != nil {
		var err error
		done, err = p.Store.Completed()
		if err != nil {
			return nil, err
		}
	}

	records := make([]Record, len(plan.Specs))
	prog := newProgress(p.Progress, plan.Name, len(plan.Specs))
	var (
		wg       sync.WaitGroup
		storeErr error
		storeMu  sync.Mutex
	)
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				spec, seed := plan.Specs[i], plan.SeedOf(i)
				// A logged record stands in for the job only if it ran at
				// the seed this plan gives the job: a changed -seed
				// re-runs it instead of serving the old numbers.
				if rec, ok := done[spec.ID]; ok && rec.OK() && rec.Seed == seed {
					rec.Cached = true
					records[i] = rec
					prog.record(rec)
					continue
				}
				rec := p.runJob(ctx, spec, seed)
				if p.Store != nil && rec.Status != StatusCanceled {
					if err := p.Store.Put(rec); err != nil {
						storeMu.Lock()
						if storeErr == nil {
							storeErr = err
						}
						storeMu.Unlock()
					}
				}
				records[i] = rec
				prog.record(rec)
			}
		}()
	}
dispatch:
	for i := range plan.Specs {
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	prog.finish()

	for i := range records {
		if records[i].Status == "" {
			spec := plan.Specs[i]
			records[i] = Record{
				ID: spec.ID, Experiment: spec.Experiment, Group: spec.Group,
				Seed: plan.SeedOf(i), Config: spec.Config,
				Status: StatusCanceled, Error: ctx.Err().Error(),
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return records, err
	}
	return records, storeErr
}

// runJob executes one job to a final record, including its retry loop.
func (p *Pool) runJob(ctx context.Context, spec Spec, seed int64) Record {
	return Execute(ctx, spec, seed, ExecOptions{
		Timeout: p.Timeout, Retries: p.Retries, Backoff: p.Backoff,
	})
}

// ExecOptions bounds one Execute call: the defaults a Pool would apply
// to a job whose spec leaves them unset.
type ExecOptions struct {
	// Timeout is the wall-clock limit when spec.Timeout is zero; zero
	// means none.
	Timeout time.Duration
	// Retries is how many times a job returning a plain error re-runs.
	Retries int
	// Backoff is the first retry delay, doubling per attempt; <=0 means
	// 100ms.
	Backoff time.Duration
}

// Execute runs one job to a final record — panic recovery, per-job
// deadline, bounded retries with exponential backoff — exactly as a
// Pool worker would. It is the single job-execution path shared by the
// in-process Pool and the distributed sweep workers (internal/sweepd),
// so a job's record is identical wherever it runs.
func Execute(ctx context.Context, spec Spec, seed int64, opt ExecOptions) Record {
	rec := Record{
		ID: spec.ID, Experiment: spec.Experiment, Group: spec.Group,
		Seed: seed, Config: spec.Config,
	}
	timeout := spec.Timeout
	if timeout == 0 {
		timeout = opt.Timeout
	}
	backoff := opt.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	start := time.Now()
	for {
		rec.Attempts++
		res, stack, err := attempt(ctx, spec, seed, timeout)
		switch {
		case err == nil:
			rec.Status, rec.Result, rec.Error, rec.Stack = StatusOK, &res, "", ""
		case stack != nil:
			rec.Status, rec.Error, rec.Stack = StatusPanic, err.Error(), string(stack)
		case errors.Is(err, errTimeout):
			rec.Status, rec.Error = StatusTimeout, err.Error()
		case ctx.Err() != nil:
			rec.Status, rec.Error = StatusCanceled, err.Error()
		default:
			rec.Status, rec.Error = StatusFailed, err.Error()
		}
		// Panics and timeouts are deterministic in a seeded simulator;
		// only plain errors are worth retrying.
		if rec.Status != StatusFailed || rec.Attempts > opt.Retries {
			break
		}
		select {
		case <-time.After(backoff << (rec.Attempts - 1)):
		case <-ctx.Done():
			rec.Status, rec.Error = StatusCanceled, ctx.Err().Error()
		}
		if rec.Status == StatusCanceled {
			break
		}
	}
	rec.WallMS = float64(time.Since(start).Microseconds()) / 1e3
	return rec
}

// attempt runs spec.Run once under the deadline, converting panics into
// errors with their stack attached.
func attempt(ctx context.Context, spec Spec, seed int64,
	timeout time.Duration) (Result, []byte, error) {

	jobCtx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		jobCtx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	type outcome struct {
		res   Result
		stack []byte
		err   error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("panic: %v", r), stack: debug.Stack()}
			}
		}()
		res, err := spec.Run(jobCtx, seed)
		ch <- outcome{res: res, err: err}
	}()
	select {
	case o := <-ch:
		return o.res, o.stack, o.err
	case <-jobCtx.Done():
		if ctx.Err() == nil {
			return Result{}, nil, fmt.Errorf("runner: %s: %w after %v", spec.ID, errTimeout, timeout)
		}
		return Result{}, nil, ctx.Err()
	}
}
