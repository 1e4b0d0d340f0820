// Command sweep runs multi-seed experiment grids: a base scenario file
// and the cross product of -vary axes over any scenario field by dotted
// path, replicated across derived seeds and aggregated into mean/p95/p99
// with bootstrap confidence intervals. `sweep run -fig` runs the paper's
// figures the same way: every cell of the named figures as one plan,
// each figure's table rendered to <out>/<id>.tsv from the records.
//
//	sweep run    [grid flags] -out dir                 run the grid on this machine's worker pool
//	sweep run    -fig id,...|all [-scale s] -out dir   regenerate figure tables the same way
//	sweep serve  [grid flags] -addr host:port -out dir coordinate the grid for remote workers
//	sweep work   -connect host:port                    execute a coordinator's leased jobs
//	sweep status -connect host:port | -out dir         live or offline progress per group
//
// run and serve write the same durable record log (<out>/records.log)
// and the same aggregate.json; with -resume either one skips every job
// the log already holds as complete. Per-job seeds derive from the plan
// seed and the job's index, so the output is byte-identical at any
// worker count, on one process or on a fleet of `sweep work` processes
// (serve also runs -workers in-process workers; remote workers rebuild
// the plan from the grid the coordinator ships them). The protocol
// assumes a trusted loopback/LAN segment.
//
// Examples:
//
//	sweep run -scenario examples/incast/scenario.json -vary switch.bm=DT,ABM -vary workload.load=0.2,0.4,0.6,0.8 -reps 3 -out results/sweep
//	sweep run -plan plan.json -out results/sweep -resume
//	sweep run -scenario scenarios/oversub-2to1.json -vary switch.bm=DT,ABM -reps 3
//	sweep run -fig all -scale small -seed 42 -out results
//	sweep serve -scenario scenarios/oversub-2to1.json -vary switch.bm=DT,ABM -workers 0 -out results/serve
//	sweep work -connect 127.0.0.1:7077 -slots 4
//	sweep status -out results/serve
//
// Profiling: `sweep run` takes -cpuprofile, -memprofile and -trace (see
// DESIGN.md, "Event engine internals").
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"abm/internal/experiments"
	"abm/internal/obs"
	"abm/internal/obs/prom"
	"abm/internal/prof"
	"abm/internal/runner"
	"abm/internal/scenario"
	"abm/internal/sweepd"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usage = `usage:
  sweep run    [grid flags] -out dir                  run the grid on this machine's worker pool
  sweep run    -fig id,...|all [-scale s] -out dir    regenerate paper figures into <out>/<id>.tsv
  sweep serve  [grid flags] -addr host:port -out dir  run the coordinator (plus -workers in-process workers)
  sweep work   -connect host:port [-slots n]          work a remote coordinator's sweep
  sweep status -connect host:port                     print a coordinator's live status
  sweep status -out dir                               replay a sweep's record log offline
`

// run dispatches one subcommand and returns the process exit status, so
// deferred profile writers and store closes fire on every exit path.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	switch args[0] {
	case "run":
		return runCmd(args[1:], stdout, stderr)
	case "serve":
		return serveCmd(args[1:], stdout, stderr)
	case "work":
		return workCmd(args[1:], stderr)
	case "status":
		return statusCmd(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usage)
		return 0
	default:
		fmt.Fprintf(stderr, "sweep: unknown subcommand %q\n%s", args[0], usage)
		return 2
	}
}

// sweepFlags are the flags run and serve share: the grid, where its
// records go, and the in-process workers that execute it.
type sweepFlags struct {
	grid    experiments.Grid
	plan    string
	timeout time.Duration
	obs     obs.Flags

	out     string
	resume  bool
	workers int
	retries int
}

func addSweepFlags(fs *flag.FlagSet) *sweepFlags {
	f := &sweepFlags{}
	g := &f.grid
	fs.StringVar(&f.plan, "plan", "", "JSON plan file (internal/experiments.Grid; unknown keys are errors); replaces the grid flags (telemetry flags still apply)")
	fs.StringVar(&g.Name, "name", "sweep", "sweep name (prefixes job IDs)")
	fs.Int64Var(&g.Seed, "seed", 1, "plan seed; per-job seeds derive from it")
	fs.IntVar(&g.Reps, "reps", 1, "seed replications per configuration")
	fs.IntVar(&g.Shards, "shards", 0, "simulation shards per job (0 = the base scenario's; >=1 runs the parallel engine; in-process workers and work slots are capped so shards x workers <= GOMAXPROCS)")
	fs.DurationVar(&f.timeout, "timeout", 0, "per-job wall-clock timeout (0 = none)")
	fs.StringVar(&g.Scenario, "scenario", "", "base scenario JSON file (required unless -plan names one): jobs start from it and -vary axes mutate it")
	fs.Func("vary", "sweep axis as \"field.path=v1,v2,...\" (repeatable; crossed in flag order)", func(s string) error {
		path, vals, ok := strings.Cut(s, "=")
		if !ok || path == "" {
			return fmt.Errorf("want field.path=v1,v2,..., got %q", s)
		}
		values := splitCSV(vals)
		if len(values) == 0 {
			return fmt.Errorf("axis %q has no values", path)
		}
		g.Vary = append(g.Vary, experiments.PathAxis{Path: path, Values: values})
		return nil
	})
	f.obs.AddFlagsTo(fs, true)

	fs.StringVar(&f.out, "out", "sweep-results", "output directory (records.log, aggregate.json)")
	fs.BoolVar(&f.resume, "resume", false, "continue the record log in -out, skipping jobs it holds as complete")
	fs.IntVar(&f.workers, "workers", runtime.NumCPU(), "in-process workers (serve: 0 = remote workers only)")
	fs.IntVar(&f.retries, "retries", 1, "retries for jobs failing with an error")
	return f
}

// resolve returns the grid the flags describe, or the -plan file's grid
// when one is named. Either way the grid must name a base scenario.
func (f *sweepFlags) resolve() (experiments.Grid, error) {
	obsOpts, err := f.obs.Validate()
	if err != nil {
		return experiments.Grid{}, err
	}
	grid := f.grid
	grid.TimeoutSec = f.timeout.Seconds()
	grid.Obs = obsOpts
	if f.plan != "" {
		data, err := os.ReadFile(f.plan)
		if err != nil {
			return experiments.Grid{}, err
		}
		// A key the grid does not know is a typo or a retired plan format;
		// ignoring it would silently run a different grid.
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		grid = experiments.Grid{}
		if err := dec.Decode(&grid); err != nil {
			return experiments.Grid{}, fmt.Errorf("%s: %w", f.plan, err)
		}
		// Telemetry flags apply on top of a plan file, so stored plans can
		// be re-traced.
		if obsOpts.Active() {
			grid.Obs = obsOpts
		}
	}
	if grid.Scenario == "" {
		return experiments.Grid{}, fmt.Errorf("a sweep needs a base scenario: pass -scenario (or \"scenario\" in the -plan file); " +
			"abmsim's flags write one with `abmsim -bm ABM -load 0.4 ... -save-scenario base.json`")
	}
	return grid, nil
}

// openStore opens <out>/records.log. A fresh sweep into a directory that
// already holds a log would silently skip the jobs it records, so that
// takes an explicit -resume.
func (f *sweepFlags) openStore() (*runner.Store, error) {
	if !f.resume {
		if _, err := os.Stat(filepath.Join(f.out, runner.LogName)); err == nil {
			return nil, fmt.Errorf("%s already holds a record log; pass -resume to continue it or choose a fresh -out", f.out)
		}
	}
	return runner.OpenStore(f.out)
}

// report writes <out>/aggregate.json, prints the group table to stdout
// and the summary plus one FAILED line per failed job to stderr, and
// returns the exit status: 1 when any job failed.
func (f *sweepFlags) report(stdout, stderr io.Writer, records []runner.Record, start time.Time) int {
	groups := runner.Aggregate(records)
	aggPath := filepath.Join(f.out, "aggregate.json")
	data, err := json.MarshalIndent(groups, "", "  ")
	if err != nil {
		return die(stderr, err)
	}
	if err := os.WriteFile(aggPath, append(data, '\n'), 0o644); err != nil {
		return die(stderr, err)
	}
	ok, cached := 0, 0
	for _, rec := range records {
		if rec.OK() {
			ok++
		}
		if rec.Cached {
			cached++
		}
	}
	failed := runner.Failed(records)
	fmt.Fprint(stdout, runner.FormatGroups(groups))
	fmt.Fprintf(stderr, "done in %s: %d ok (%d from log), %d failed; aggregate -> %s\n",
		time.Since(start).Round(100*time.Millisecond), ok, cached, len(failed), aggPath)
	for _, rec := range failed {
		fmt.Fprintf(stderr, "  FAILED %s: %s (%s)\n", rec.ID, firstLine(rec.Error), rec.Status)
	}
	if len(failed) > 0 {
		return 1
	}
	return 0
}

// runPlan builds the plan `sweep run` executes: the grid's, or with
// -fig the named figures' cells, returned too so their tables can be
// rendered from the records. Flags of the other mode are rejected
// rather than silently ignored.
func (f *sweepFlags) runPlan(fs *flag.FlagSet, fig, scale string) (*runner.Plan, *experiments.Figures, error) {
	set := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	if fig == "" {
		if set["scale"] {
			return nil, nil, fmt.Errorf("-scale picks the figure preset; it applies only with -fig")
		}
		grid, err := f.resolve()
		if err != nil {
			return nil, nil, err
		}
		f.grid = grid // a -plan file's shard count caps the pool's workers too
		plan, err := grid.Plan()
		return plan, nil, err
	}
	for _, name := range []string{"plan", "name", "reps", "vary"} {
		if set[name] {
			return nil, nil, fmt.Errorf("-%s applies to grids; -fig runs the figures' own cells", name)
		}
	}
	obsOpts, err := f.obs.Validate()
	if err != nil {
		return nil, nil, err
	}
	base, err := scenario.Preset(scale)
	if err != nil {
		return nil, nil, err
	}
	base.Seed = f.grid.Seed
	if f.grid.Scenario != "" {
		s, err := scenario.Load(f.grid.Scenario)
		if err != nil {
			return nil, nil, err
		}
		base.Fabric = s.Fabric
	}
	figs := &experiments.Figures{IDs: splitCSV(fig), Base: base, Shards: f.grid.Shards, Obs: obsOpts}
	plan, err := figs.Plan()
	return plan, figs, err
}

// runCmd runs the grid, or the -fig figures, on an in-process
// runner.Pool.
func runCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := addSweepFlags(fs)
	fig := fs.String("fig", "", "regenerate paper figures instead of a grid: comma-separated IDs ("+
		strings.Join(experiments.FigureIDs, ", ")+") or \"all\"; each table is written to <out>/<id>.tsv, "+
		"-seed is the figure seed and -scenario overlays its fabric on the preset")
	scale := fs.String("scale", "small", "with -fig: the preset the figure cells derive from (small, medium, paper)")
	dryRun := fs.Bool("dry-run", false, "print the expanded job list and exit")
	injectPanic := fs.String("inject-panic", "", "make jobs whose ID contains this substring panic (fault-injection testing)")
	var pf prof.Flags
	pf.AddFlagsTo(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	plan, figs, err := f.runPlan(fs, *fig, *scale)
	if err != nil {
		return die(stderr, err)
	}
	stopProf, err := pf.Start()
	if err != nil {
		return die(stderr, err)
	}
	defer stopProf()

	// -timeout bounds every job that carries no limit of its own (the
	// figure cells; a grid's jobs already carry it as timeout_sec).
	for i := range plan.Specs {
		if plan.Specs[i].Timeout == 0 {
			plan.Specs[i].Timeout = f.timeout
		}
	}
	if *injectPanic != "" {
		for i := range plan.Specs {
			if strings.Contains(plan.Specs[i].ID, *injectPanic) {
				id := plan.Specs[i].ID
				plan.Specs[i].Run = func(context.Context, int64) (runner.Result, error) {
					panic(fmt.Sprintf("injected panic in %s", id))
				}
			}
		}
	}
	if *dryRun {
		for i, s := range plan.Specs {
			fmt.Fprintf(stdout, "%s\tseed=%d\n", s.ID, plan.SeedOf(i))
		}
		return 0
	}

	store, err := f.openStore()
	if err != nil {
		return die(stderr, err)
	}
	defer store.Close()
	fmt.Fprintf(stderr, "sweep %q: %d jobs on %d workers -> %s\n", plan.Name, len(plan.Specs), f.workers, f.out)
	start := time.Now()
	pool := &runner.Pool{
		Workers: f.workers, JobShards: f.grid.Shards,
		Retries:  f.retries,
		Progress: stderr, Store: store,
	}
	records, err := pool.Run(context.Background(), plan)
	if err != nil {
		return die(stderr, err)
	}
	code := f.report(stdout, stderr, records, start)
	if figs != nil {
		// Every table is rendered from the records, so a resumed run
		// rewrites them without simulating.
		if err := figs.WriteTSVs(f.out, records); err != nil {
			fmt.Fprintln(stderr, err)
			code = 1
		}
	}
	return code
}

// serveCmd runs the coordinator: the grid flags of run, plus the
// lease and adaptive-replication knobs.
func serveCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := addSweepFlags(fs)
	addr := fs.String("addr", "127.0.0.1:7077", "listen address for worker connections")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "lease lifetime without a heartbeat")
	maxLeases := fs.Int("max-lease-attempts", 5, "leases per job before the coordinator records it failed")
	ciTarget := fs.Float64("ci-target", 0, "adaptive replication: relative CI half-width target (0 = off)")
	ciMetric := fs.String("ci-metric", "p99_incast_slowdown", "metric adaptive replication tightens")
	maxReps := fs.Int("max-reps", 0, "adaptive replication cap per cell (0 = 4x base reps)")
	quiet := fs.Bool("quiet", false, "suppress per-job progress lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	grid, err := f.resolve()
	if err != nil {
		return die(stderr, err)
	}
	if *ciTarget > 0 {
		// Extras re-run their group's first spec, paths included, so
		// each would overwrite that spec's per-job file.
		for _, p := range []struct{ flag, path string }{
			{"-trace-events", grid.Obs.EventsFile}, {"-trace-chrome", grid.Obs.ChromeFile},
			{"-counters", grid.Obs.CountersFile}, {"-hist-snapshots", grid.Obs.HistFile},
		} {
			if p.path != "" {
				return die(stderr, fmt.Errorf("-ci-target cannot be combined with %s: "+
					"adaptive extras re-run a group's first spec and would overwrite its per-job file", p.flag))
			}
		}
	}
	store, err := f.openStore()
	if err != nil {
		return die(stderr, err)
	}
	defer store.Close()

	var progress io.Writer
	if !*quiet {
		progress = stderr
	}
	c, err := sweepd.NewCoordinator(sweepd.Config{
		Grid:     &grid,
		LeaseTTL: *leaseTTL,
		// Worker-shipped telemetry bundles land beside the record log.
		TelemetryDir: filepath.Join(f.out, "telemetry"),
		TableConfig: runner.TableConfig{
			MaxLeaseAttempts: *maxLeases,
			CITarget:         *ciTarget,
			CIMetric:         *ciMetric,
			MaxReps:          *maxReps,
			Store:            store,
			Log:              progress,
		},
	})
	if err != nil {
		return die(stderr, err)
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return die(stderr, err)
	}
	defer l.Close()
	go http.Serve(l, c.Handler())
	plan := c.Table().Plan()
	workers := runner.CapWorkers(f.workers, grid.Shards, stderr)
	fmt.Fprintf(stderr, "sweep serve %q: %d jobs, listening on %s, %d in-process workers -> %s\n",
		plan.Name, len(plan.Specs), l.Addr(), workers, f.out)

	// The in-process workers work the table exactly as `sweep run`'s
	// pool does; remote workers lease from the same table over HTTP.
	ctx := context.Background()
	work := make(chan error, 1)
	go func() { work <- c.Table().Work(ctx, workers, runner.ExecOptions{Retries: f.retries}, nil) }()
	start := time.Now()
	if err := c.Wait(ctx); err != nil {
		return die(stderr, err)
	}
	if err := <-work; err != nil {
		return die(stderr, err)
	}
	return f.report(stdout, stderr, c.Table().Records(), start)
}

// workCmd joins a remote coordinator as a worker.
func workCmd(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep work", flag.ContinueOnError)
	fs.SetOutput(stderr)
	connect := fs.String("connect", "", "coordinator address (host:port or URL)")
	name := fs.String("name", "", "worker name (default worker-<pid>)")
	slots := fs.Int("slots", runtime.NumCPU(), "concurrent jobs")
	retries := fs.Int("retries", 1, "retries for jobs failing with an error")
	metricsAddr := fs.String("metrics-addr", "", "serve the worker's own /metrics on this address (empty = off)")
	quiet := fs.Bool("quiet", false, "suppress per-job progress lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *connect == "" {
		return die(stderr, fmt.Errorf("sweep work: -connect is required"))
	}
	var progress io.Writer
	if !*quiet {
		progress = stderr
	}
	w := &sweepd.Worker{
		Dispatcher: sweepd.NewClient(*connect),
		Name:       *name,
		Slots:      *slots,
		Retries:    *retries,
		Progress:   progress,
	}
	if *metricsAddr != "" {
		l, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return die(stderr, err)
		}
		defer l.Close()
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
			var pw prom.Writer
			w.WriteMetrics(&pw)
			rw.Header().Set("Content-Type", prom.ContentType)
			rw.Write(pw.Bytes())
		})
		go http.Serve(l, mux)
	}
	if err := w.Run(context.Background()); err != nil {
		return die(stderr, err)
	}
	fmt.Fprintln(stderr, "sweep work: sweep complete, worker exiting")
	return 0
}

// statusCmd prints a coordinator's live status (-connect) or replays a
// sweep's record log (-out) for the same view offline.
func statusCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	connect := fs.String("connect", "", "coordinator address (host:port or URL)")
	out := fs.String("out", "", "offline mode: replay records.log in this directory instead of contacting a coordinator")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var st *sweepd.Status
	var err error
	switch {
	case *connect != "":
		st, err = sweepd.NewClient(*connect).Status()
	case *out != "":
		st, err = offlineStatus(*out)
	default:
		err = fmt.Errorf("sweep status: -connect or -out is required")
	}
	if err != nil {
		return die(stderr, err)
	}
	printStatus(stdout, st)
	return 0
}

// printStatus renders one status snapshot, including the fleet-wide
// merged FCT-slowdown summary per group when the sweep records
// histograms.
func printStatus(w io.Writer, st *sweepd.Status) {
	fmt.Fprintf(w, "sweep %q: %d jobs — %d pending, %d leased, %d done (%d failed)",
		st.Name, st.Jobs, st.Pending, st.Leased, st.Done, st.Failed)
	if st.Finished {
		fmt.Fprint(w, "  [finished]")
	}
	fmt.Fprintln(w)
	for _, g := range st.Groups {
		line := fmt.Sprintf("  %-40s %d/%d ok", g.Group, g.OK, g.Total)
		if g.Failed > 0 {
			line += fmt.Sprintf(", %d failed", g.Failed)
		}
		if g.RelCIHalfWidth > 0 {
			line += fmt.Sprintf(", rel-CI %.4f (mean %.4g)", g.RelCIHalfWidth, g.Mean)
		}
		if g.Settled {
			line += ", settled"
		}
		fmt.Fprintln(w, line)
		if s := g.Slowdown; s != nil {
			fmt.Fprintf(w, "  %-40s slowdown p50 %.3f  p99 %.3f  p999 %.3f  (%d flows)\n",
				"", s.P50, s.P99, s.P999, s.Count)
		}
	}
}

// offlineStatus rebuilds a status snapshot from a record log — that of a
// finished or interrupted `sweep run` (grid or -fig) or `sweep serve`.
// Jobs resolve latest-entry-wins like resume does, and groups are keyed
// "experiment/group" like aggregate.json's rows.
func offlineStatus(dir string) (*sweepd.Status, error) {
	if _, err := os.Stat(filepath.Join(dir, runner.LogName)); err != nil {
		return nil, err
	}
	store, err := runner.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	recs, err := store.Latest()
	if err != nil {
		return nil, err
	}
	st := &sweepd.Status{Name: dir, Finished: true}
	byGroup := make(map[string][]runner.Record)
	for _, rec := range recs {
		group := rec.Group
		if group == "" {
			group = rec.ID
		}
		key := rec.Experiment + "/" + group
		byGroup[key] = append(byGroup[key], rec)
	}
	keys := make([]string, 0, len(byGroup))
	for key := range byGroup {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		gs := sweepd.GroupStatus{TableGroup: runner.TableGroup{Group: key, Settled: true, Total: len(byGroup[key])}}
		for _, rec := range byGroup[key] {
			if rec.OK() {
				gs.OK++
			} else {
				gs.Failed++
			}
		}
		gs.Slowdown = sweepd.SlowdownOf(byGroup[key])
		st.Jobs += gs.Total
		st.Done += gs.Total
		st.Failed += gs.Failed
		st.Groups = append(st.Groups, gs)
	}
	return st, nil
}

// die reports a fatal setup error; callers return its value so deferred
// cleanups still execute.
func die(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, err)
	return 2
}

func splitCSV(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func firstLine(s string) string {
	first, _, _ := strings.Cut(s, "\n")
	return first
}
