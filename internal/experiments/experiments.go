// Package experiments regenerates the paper's evaluation (§4): each
// simulated figure is a list of labeled scenario.Scenario values built
// from one scale preset (scenario.Preset) plus a renderer that turns
// their runner results into the figure's TSV table. Grid is the
// cross-product form of the same thing for cmd/sweep: a base scenario
// file and dotted-path axes. Both run on internal/runner's pool, one job
// record per scenario.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"abm/internal/obs"
	"abm/internal/runner"
	"abm/internal/scenario"
)

// RunOptions configures how a figure's cells are executed on the
// runner pool. The zero value (or a nil pointer) runs cells in parallel
// across all CPUs with no timeout, no retries and no persistence.
type RunOptions struct {
	// Workers is the cell-level parallelism; <=0 means NumCPU.
	Workers int
	// Shards, when >=1, runs every cell on the topology-sharded
	// parallel engine with that many shards (scenario.Scenario.Shards);
	// 0 keeps each cell's own setting. The pool caps Workers so that
	// shards x workers stays within GOMAXPROCS.
	Shards int
	// Timeout bounds each cell's wall-clock time; 0 means none.
	Timeout time.Duration
	// Retries re-runs cells that fail with an error.
	Retries int
	// Store, when non-nil, appends every cell's record to its log and
	// lets completed cells be skipped when the same figure re-runs.
	Store *runner.Store
	// Progress, when non-nil, receives live progress/ETA lines.
	Progress io.Writer
	// Obs enables telemetry on every cell. With PerJob set (the flag
	// surface's default for figures), the path fields are directories
	// and each job writes its own files, named by its sanitized ID.
	Obs obs.Options
}

// pool builds the runner pool an options value describes.
func (o *RunOptions) pool() *runner.Pool {
	if o == nil {
		o = &RunOptions{}
	}
	p := &runner.Pool{
		Workers:   o.Workers,
		JobShards: o.Shards,
		Timeout:   o.Timeout,
		Retries:   o.Retries,
		Progress:  o.Progress,
	}
	// Pool.Store is an interface: assigning a nil *runner.Store would
	// make it non-nil and turn persistence on with no store behind it.
	if o.Store != nil {
		p.Store = o.Store
	}
	return p
}

// job is one labeled cell of a figure's grid.
type job struct {
	label string
	sc    scenario.Scenario
}

// jobID names a figure's i-th cell in records and telemetry files.
func jobID(experiment string, i int, label string) string {
	return fmt.Sprintf("%s/%03d-%s", experiment, i, label)
}

// runCells executes a figure's cells on the runner pool and returns
// their results in input order. Cells keep their explicit seeds (a
// figure's TSV is a pure function of the figure seed), run in parallel,
// and each lands as one record in the options' store when set. A
// cell that fails — including one that panics — fails the figure with
// its job ID attached, after the remaining cells finish.
func runCells(o *RunOptions, experiment string, jobs []job) ([]runner.Result, error) {
	plan := &runner.Plan{Name: experiment}
	for i, j := range jobs {
		sc := j.sc
		if o != nil && o.Shards >= 1 {
			sc.Shards = o.Shards
		}
		id := jobID(experiment, i, j.label)
		if o != nil && o.Obs.Active() {
			sc.Obs = o.Obs.ForJob(id)
		}
		plan.Add(runner.Spec{
			ID:         id,
			Experiment: experiment,
			Group:      j.label,
			Seed:       sc.Seed,
			Config:     sc,
			Run:        runScenario(sc),
		})
	}
	records, err := o.pool().Run(context.Background(), plan)
	if err != nil {
		return nil, err
	}
	results := make([]runner.Result, len(records))
	for i, rec := range records {
		if !rec.OK() {
			return nil, fmt.Errorf("experiments: %s: %s (%s)", rec.ID, rec.Error, rec.Status)
		}
		results[i] = *rec.Result
	}
	return results, nil
}

// runScenario is the job body figures and grids share: run the
// scenario at the job's seed and convert the result into the runner's
// record payload, the resolved spec embedded.
func runScenario(sc scenario.Scenario) func(context.Context, int64) (runner.Result, error) {
	return func(_ context.Context, seed int64) (runner.Result, error) {
		c := sc.Clone()
		c.Seed = seed
		res, _, err := scenario.Run(c)
		if err != nil {
			return runner.Result{}, err
		}
		out := runner.Result{
			Summary:          res.Summary,
			Events:           res.Events,
			Drops:            res.Drops,
			UnscheduledDrops: res.UnscheduledDrops,
			Counters:         res.Counters,
			Hists:            res.Hists,
			Scenario:         res.Scenario,
		}
		if len(res.PerPrioP99Short) > 0 {
			out.Extra = make(map[string]float64, len(res.PerPrioP99Short))
			for prio, v := range res.PerPrioP99Short {
				out.Extra[perPrioKey(prio)] = v
			}
		}
		return out, nil
	}
}

// perPrioKey names a per-priority p99 short-flow metric in a record's
// Extra map.
func perPrioKey(prio uint8) string { return fmt.Sprintf("p99_short_prio%d", prio) }
