package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"abm/internal/scenario"
)

// bench is the state of one benchmark invocation.
type bench struct {
	ctx  context.Context
	seed int64
	// run executes one job and returns its sample: spawn (a fresh
	// process per job) in the command, execJob (in-process) in tests.
	run func(context.Context, job) (sample, error)
	tmp string // scratch root inside the working directory

	spans *spanLog
	// refs memoises the packet-hop reference run per workload: both
	// phases need it and it costs a full run.
	refs map[string]sample

	// Sizing. The command uses the constants; tests shrink them.
	setupBlocks    int
	probeBatches   int
	probeBatchTime time.Duration
	// shrink, when set, cuts every job down before it runs. Tests only:
	// short runs measure a different regime (see README).
	shrink func(*scenario.Scenario)
}

func newBench(ctx context.Context, seed int64, tmp string) *bench {
	return &bench{
		ctx: ctx, seed: seed, run: spawn, tmp: tmp,
		spans:          newSpanLog(),
		refs:           make(map[string]sample),
		setupBlocks:    5,
		probeBatches:   probeBatches,
		probeBatchTime: probeBatchTime,
	}
}

// sample runs workload w under variant v in a fresh scratch directory
// and records one span for the call.
func (b *bench) sample(w workload, v variant, parent int) (sample, error) {
	sc, err := w.spec(b.seed)
	if err != nil {
		return sample{}, err
	}
	dir, err := os.MkdirTemp(b.tmp, "run-")
	if err != nil {
		return sample{}, err
	}
	defer os.RemoveAll(dir)
	j := job{Grid: w.grid, Dir: dir, FCTs: sc.Hybrid.Enabled}
	j.Scenario = v.apply(sc, dir, w.grid)
	if b.shrink != nil {
		b.shrink(&j.Scenario)
	}
	name := "scenario.Run"
	if w.grid {
		name = "runner.Pool.Run"
	}
	id := b.spans.start(w.name, name, parent)
	defer b.spans.end(id)
	return b.run(b.ctx, j)
}

// ref returns the workload's packet-hop reference: the same spec and
// seed with counters on and the hybrid engine off, so the count is the
// packet work the workload stands for, whatever engine carries it.
func (b *bench) ref(w workload, parent int) (sample, error) {
	if s, ok := b.refs[w.name]; ok {
		return s, nil
	}
	s, err := b.sample(w, variant{counters: true, hybridOff: true}, parent)
	if err != nil {
		return sample{}, err
	}
	b.refs[w.name] = s
	return s, nil
}

// span is one timed call into a layer, made from the benchmark's own
// files: name is layer.fn, Trace the workload (or "probes") whose spans
// belong together, Parent the span that caused it (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; write dumps them when the run ends so
// recording never touches the disk while something is being timed.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) start(trace, name string, parent int) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartNs: time.Since(l.t0).Nanoseconds()})
	return id
}

func (l *spanLog) end(id int) { l.spans[id-1].EndNs = time.Since(l.t0).Nanoseconds() }

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return f.Close()
}
