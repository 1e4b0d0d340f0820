// Command figures regenerates the paper's evaluation tables: one TSV
// per figure (4 through 12, plus the ablation and alpha-sensitivity
// extras), written to stdout or a directory. Execution rides on
// internal/runner: figures are jobs on a worker pool with panic
// isolation and progress reporting, and with -out every simulated cell
// additionally lands as one record in <out>/records.log (the runner
// Store log cmd/sweep writes, so `sweep status -out` reads it too).
//
// Profiling: -cpuprofile, -memprofile and -trace capture the run for
// performance work on the simulator core (see DESIGN.md, "Event engine
// internals").
//
// Examples:
//
//	figures -fig fig6 -scale medium
//	figures -fig all -scale small -out results/ -workers 4
//	figures -fig fig6 -scale small -cpuprofile cpu.out
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"abm/internal/experiments"
	"abm/internal/obs"
	"abm/internal/prof"
	"abm/internal/runner"
	"abm/internal/scenario"
)

func main() { os.Exit(run()) }

// run is main's body with normal control flow, so deferred profile
// writers fire on every exit path.
func run() int {
	var (
		fig     = flag.String("fig", "all", "figure id (fig4..fig12, ablation, alphasweep) or 'all'")
		scale   = flag.String("scale", "small", "fabric scale: small, medium, paper")
		seed    = flag.Int64("seed", 1, "random seed")
		out     = flag.String("out", "", "output directory (default: stdout, figures sequential)")
		workers = flag.Int("workers", runtime.NumCPU(), "parallel figure workers (with -out)")
		shards  = flag.Int("shards", 0, "simulation shards per cell (0 = serial loop; >=1 runs the parallel engine, clamped to the fabric's leaf count)")
		scn     = flag.String("scenario", "", "overlay this scenario file's fabric shape (dimensions, link rates, delay) onto every cell; -scale still picks durations")
		pf      prof.Flags
		of      obs.Flags
	)
	pf.AddFlags()
	of.AddFlags(true)
	flag.Parse()

	obsOpts, err := of.Validate()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProf()

	// Every simulated figure builds its cells from this base: the scale
	// preset at the figure seed, on the -scenario file's fabric if given.
	base, err := scenario.Preset(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	base.Seed = *seed
	if *scn != "" {
		s, err := scenario.Load(*scn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		base.Fabric = s.Fabric
	}

	ids := []string{*fig}
	if *fig == "all" {
		ids = experiments.FigureIDs
	}

	if *out == "" {
		// Stdout mode: figures render sequentially (their tables would
		// interleave otherwise); each figure's cells still run in
		// parallel on the pool.
		for _, id := range ids {
			opts := &experiments.RunOptions{Shards: *shards, Obs: obsOpts}
			if err := experiments.RunFigure(opts, id, base, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		return 0
	}

	store, err := runner.OpenStore(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer store.Close()

	// One pool job per figure; each figure's cells run on its own inner
	// pool with one worker, so total parallelism stays at -workers and
	// per-cell records land in the shared store as they complete.
	plan := &runner.Plan{Name: "figures"}
	for _, id := range ids {
		id := id
		plan.Add(runner.Spec{
			ID:         "figures/" + id,
			Experiment: id,
			Seed:       *seed,
			Run: func(_ context.Context, _ int64) (runner.Result, error) {
				opts := &experiments.RunOptions{Workers: 1, Shards: *shards, Store: store, Obs: obsOpts}
				f, err := os.Create(filepath.Join(*out, id+".tsv"))
				if err != nil {
					return runner.Result{}, err
				}
				err = experiments.RunFigure(opts, id, base, f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				return runner.Result{}, err
			},
		})
	}
	// Each figure job runs its cells one at a time (inner Workers: 1),
	// so a figure's goroutine footprint is its shard count; the outer
	// pool caps figure-level parallelism accordingly.
	pool := &runner.Pool{Workers: *workers, JobShards: *shards, Progress: os.Stderr}
	records, err := pool.Run(context.Background(), plan)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	failed := runner.Failed(records)
	for _, rec := range records {
		if rec.OK() {
			fmt.Printf("%s written in %.1fs\n", rec.Experiment, rec.WallMS/1e3)
		} else {
			fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", rec.Experiment, rec.Error, rec.Status)
		}
	}
	if len(failed) > 0 {
		return 1
	}
	return 0
}
