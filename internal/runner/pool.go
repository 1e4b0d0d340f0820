package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"
)

// errTimeout marks a per-job deadline expiry (distinct from sweep-level
// cancellation, which is never retried and aborts dispatch).
var errTimeout = errors.New("job deadline exceeded")

// RecordSink is where a Table persists records as jobs complete and
// where it reads previously-completed jobs from when resuming. *Store
// (one fsync per record) is the implementation. Pool and the sweep
// coordinator both reach it through their Table.
type RecordSink interface {
	// Put persists one finished record durably.
	Put(Record) error
	// Completed returns the latest successful record of every job the
	// sink already holds, keyed by job ID; on resume a listed job whose
	// record carries the job's seed is skipped.
	Completed() (map[string]Record, error)
}

// Pool executes a Plan on in-process workers that take their jobs from
// the plan's Table, so `sweep run` and `sweep serve` share one
// scheduler. Each job runs with its spec's optional wall-clock timeout
// and panic recovery: a crashing or hung simulation marks its own
// record failed and never takes the sweep down. Errors (but not panics
// or timeouts, which are deterministic) are retried up to Retries times
// with exponential backoff. The zero value is a working pool with
// NumCPU workers, no retries and no persistence.
type Pool struct {
	// Workers is the number of concurrent jobs; <=0 means NumCPU.
	Workers int
	// JobShards is the number of simulation shards each job itself runs
	// on (its internal goroutine fan-out); <=1 means jobs are serial.
	// When >1, Run caps the worker count so that workers x JobShards
	// stays within GOMAXPROCS instead of silently oversubscribing the
	// machine, and logs the adjustment to Progress.
	JobShards int
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
// The error reports setup problems (invalid plan, unreadable store), a
// record the store failed to persist (Table.Err) or context
// cancellation; per-job failures are carried in the records —
// check Failed on the result. Jobs a canceled sweep never finished get
// a canceled record.
func (p *Pool) Run(ctx context.Context, plan *Plan) ([]Record, error) {
	t, err := NewTable(plan, TableConfig{Store: p.Store})
	if err != nil {
		return nil, err
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = CapWorkers(workers, p.JobShards, p.Progress)
	prog := newProgress(p.Progress, plan.Name, len(plan.Specs))
	for _, rec := range t.Records() {
		prog.record(rec) // served from the store
	}
	err = t.Work(ctx, workers, ExecOptions{Retries: p.Retries, Backoff: p.Backoff}, prog.record)
	prog.finish()
	if ctx.Err() != nil {
		t.cancel(ctx.Err())
		err = ctx.Err()
	}
	return t.Records(), err
}

// ExecOptions configures one Execute call's retries; the wall-clock
// limit is the spec's own (Spec.Timeout).
type ExecOptions struct {
	// Retries is how many times a job returning a plain error re-runs.
	Retries int
	// Backoff is the first retry delay, doubling per attempt; <=0 means
	// 100ms.
	Backoff time.Duration
}

// Execute runs one job to a final record — panic recovery, per-job
// deadline, bounded retries with exponential backoff. It is the single
// job-execution path shared by in-process workers (Table.Work) and the
// remote sweep workers (internal/sweepd), so a job's record is
// identical wherever it runs.
func Execute(ctx context.Context, spec Spec, seed int64, opt ExecOptions) Record {
	rec := Record{
		ID: spec.ID, Experiment: spec.Experiment, Group: spec.Group,
		Seed: seed, Config: spec.Config,
	}
	backoff := opt.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	start := time.Now()
	for {
		rec.Attempts++
		res, stack, err := attempt(ctx, spec, seed)
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

// attempt runs spec.Run once under spec.Timeout, converting panics into
// errors with their stack attached. A simulation cannot be preempted,
// so on expiry the job goroutine is abandoned (it holds no worker slot)
// and the job is recorded as StatusTimeout.
func attempt(ctx context.Context, spec Spec, seed int64) (Result, []byte, error) {
	jobCtx := ctx
	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		jobCtx, cancel = context.WithTimeout(ctx, spec.Timeout)
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
			return Result{}, nil, fmt.Errorf("runner: %s: %w after %v", spec.ID, errTimeout, spec.Timeout)
		}
		return Result{}, nil, ctx.Err()
	}
}
