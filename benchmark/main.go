// Command benchmark is the repository's performance ledger: seven fixed
// workloads driven through the public entry points users hit
// (scenario.Load/Resolve/BuildFabric/Run, experiments.Grid.Plan +
// runner.Pool.Run + runner.Store), seven end-to-end metrics per
// workload, and a per-layer ledger that says where the time goes.
//
//	go run ./benchmark                     # every workload, both phases
//	go run ./benchmark -phase e2e -reps 3  # end-to-end numbers only
//	go run ./benchmark -agree              # do two sets of runs agree?
//	go run ./benchmark --workload fattree-dctcp --seed 7 --seconds 9 --trace 0
//
// End-to-end numbers come from an untraced phase: each timed run is a
// fresh child process with telemetry off. A separate traced phase
// re-runs each workload with counters on and times every layer's
// public functions in isolation. See README.md for the metric glossary
// and the layer -> metric -> workload predictions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

// errIncorrect marks a run whose measurements completed but whose
// correctness checks or agreement test failed: the report is printed,
// the exit code is 1.
var errIncorrect = errors.New("benchmark: checks failed")

type options struct {
	workload       string
	seed           int64
	reps           int
	seconds        float64
	phase          string
	trace          int
	traceOut       string
	agree          bool
	updateExpected bool
}

func realMain() int {
	var o options
	var child bool
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all seven)")
	flag.Int64Var(&o.seed, "seed", expectedSeed, "seed that overrides every spec's seed")
	flag.IntVar(&o.reps, "reps", 0, "timed runs per workload (default 5; 15 for longflows-hybrid)")
	flag.Float64Var(&o.seconds, "seconds", 0, "measure each workload for this long instead of -reps times (at least 3 runs)")
	flag.StringVar(&o.phase, "phase", "all", "e2e (untraced), trace (per-layer), or all")
	flag.IntVar(&o.trace, "trace", -1, "driver mode: 0 = e2e phase, 1 = trace phase; the last line of output is one JSON object")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the in-memory spans to this file (JSON lines) at exit")
	flag.BoolVar(&o.agree, "agree", false, "run the untraced phase twice and test that the medians agree within the bounds")
	flag.BoolVar(&o.updateExpected, "update-expected", false, "rewrite benchmark/expected/*.json from this run (seed 42 only)")
	flag.BoolVar(&child, "child", false, "internal: run one job from stdin")
	flag.Parse()

	if child {
		if err := childMain(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	err := run(o)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errIncorrect):
		return 1
	default:
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
}

func run(o options) error {
	switch o.trace {
	case -1:
	case 0:
		o.phase = "e2e"
	case 1:
		o.phase = "trace"
	default:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if o.phase != "e2e" && o.phase != "trace" && o.phase != "all" {
		return fmt.Errorf("-phase must be e2e, trace or all")
	}
	ws := workloads
	if o.workload != "" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}
	if o.trace >= 0 && len(ws) != 1 {
		return fmt.Errorf("-trace needs -workload")
	}
	if o.updateExpected && (o.seed != expectedSeed || o.phase == "trace") {
		return fmt.Errorf("-update-expected needs seed %d and the e2e phase", expectedSeed)
	}

	// Children and scratch files are cleaned up on interrupt too.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tmp, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if tmp, err = filepath.Abs(tmp); err != nil {
		return err
	}
	b := newBench(ctx, o.seed, tmp)
	if o.traceOut != "" {
		defer func() {
			if err := b.spans.write(o.traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
			}
		}()
	}
	reps := func(w workload) int {
		if o.reps > 0 {
			return o.reps
		}
		return w.reps
	}

	env := readEnvironment()
	if env.Warning != "" {
		fmt.Fprintln(os.Stderr, "benchmark: warning:", env.Warning)
	}
	if o.agree {
		return b.agree(env, ws, reps, o.seconds)
	}

	doc := document{Env: env, Seed: o.seed, Phase: o.phase}
	runs := make(map[string]*e2eRun)
	if o.phase != "trace" {
		rs, err := b.runE2E(ws, reps, o.seconds)
		if err != nil {
			return err
		}
		for _, r := range rs {
			runs[r.w.name] = r
		}
	}
	var probed map[string]probeResult
	if o.phase != "e2e" {
		if probed, err = b.probeMetrics(); err != nil {
			return err
		}
		doc.Probes = make(map[string]stat, len(probed))
		for name, p := range probed {
			doc.Probes[name] = p.stat
		}
	}
	ok := true
	for _, w := range ws {
		rep := workloadReport{Name: w.name, Why: w.why}
		r := runs[w.name]
		if r == nil {
			// Trace-only: one untraced run stands in for the e2e phase's.
			if r, err = b.singleRun(w); err != nil {
				return err
			}
		}
		if rep.Checks, err = r.check(o.seed); err != nil {
			return err
		}
		if o.phase != "trace" {
			rep.EndToEnd = r.metrics(rep.Checks)
		}
		if o.phase != "e2e" {
			if rep.PerLayer, err = b.traceWorkload(r, probed); err != nil {
				return err
			}
		}
		if o.updateExpected {
			if err := writeExpected(r); err != nil {
				return err
			}
			rep.Checks.DigestChanged, rep.Checks.DigestDiff = false, nil
		}
		ok = ok && rep.Checks.Failed == 0
		doc.Workloads = append(doc.Workloads, rep)
	}

	doc.printTable(os.Stdout)
	if o.trace >= 0 {
		err = doc.printDriverLine(os.Stdout, o.trace == 1)
	} else {
		err = doc.printJSON(os.Stdout)
	}
	if err != nil {
		return err
	}
	if !ok {
		return errIncorrect
	}
	return nil
}

// singleRun takes the one untraced sample and the reference run a
// trace-only invocation needs.
func (b *bench) singleRun(w workload) (*e2eRun, error) {
	s, err := b.sample(w, variant{}, 0)
	if err != nil {
		return nil, err
	}
	ref, err := b.ref(w, 0)
	if err != nil {
		return nil, err
	}
	return &e2eRun{w: w, runs: []sample{s}, ref: ref}, nil
}

// writeExpected commits the run's digest as the new expectation. It
// writes into the source tree, so it only works from the repository
// root.
func writeExpected(r *e2eRun) error {
	data, err := json.MarshalIndent(expectedFile{Workload: r.w.name, Seed: expectedSeed, Digest: r.digest()}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join("benchmark", "expected", r.w.name+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("-update-expected must run from the repository root: %w", err)
	}
	return nil
}
