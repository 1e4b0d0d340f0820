package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"abm/internal/experiments"
	"abm/internal/hybrid"
	"abm/internal/metrics"
	"abm/internal/runner"
	"abm/internal/scenario"
)

// job is one timed run, handed to a fresh child process as JSON on its
// standard input. The parent applies seed and variant before sending,
// so the child runs exactly the scenario it is given.
type job struct {
	Scenario scenario.Scenario `json:"scenario"`
	// Grid runs Scenario as the base of the sweep-grid plan.
	Grid bool `json:"grid,omitempty"`
	// Dir is a scratch directory owned by the parent: the grid's base
	// spec and record store, and any trace files, land here.
	Dir string `json:"dir"`
	// FCTs asks for per-flow completion times (hybrid fidelity check).
	FCTs bool `json:"fcts,omitempty"`
	// SetupBlocks, when positive, times that many blocks of set-up
	// cycles instead of running the scenario.
	SetupBlocks int `json:"setup_blocks,omitempty"`
}

// sample is what one run measured. Host-side numbers (wall, CPU, RSS,
// allocation) are only meaningful from a fresh process; model-side
// numbers (events, digest, counters) repeat bit-for-bit.
type sample struct {
	WallS     float64 `json:"wall_s"`      // the timed call only
	ClockNs   float64 `json:"clock_ns"`    // ns per clock-kernel operation during the timed call
	CPUS      float64 `json:"cpu_s"`       // user+sys of the whole process
	PeakRSSMB float64 `json:"peak_rss_mb"` // high-water resident set
	AllocMB   float64 `json:"alloc_mb"`    // cumulative heap allocation
	Mallocs   uint64  `json:"mallocs"`
	GCCount   uint32  `json:"gc_count"`
	GCPauseMs float64 `json:"gc_pause_ms"`

	Events uint64 `json:"events"`
	Ops    int    `json:"ops"`    // flows started, or grid jobs
	Failed int    `json:"failed"` // unfinished flows, or jobs not ok
	Digest digest `json:"digest"`

	Counters map[string]int64 `json:"counters,omitempty"` // summed over grid jobs
	FCTps    []int64          `json:"fct_ps,omitempty"`   // by flow id
	Hybrid   *hybrid.Stats    `json:"hybrid,omitempty"`
	// SetupS is the mean seconds per set-up cycle of each block.
	SetupS []float64 `json:"setup_s,omitempty"`
	// StorePutS is the wall time spent inside Store.Put, summed over the
	// pool's workers (grid only).
	StorePutS float64 `json:"store_put_s,omitempty"`
}

// spawn runs a job in a fresh process: a re-exec of this binary with
// -child. One job per process keeps the heap, the page cache of the Go
// runtime and VmHWM of one run from leaking into the next.
func spawn(ctx context.Context, j job) (sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return sample{}, err
	}
	in, err := json.Marshal(j)
	if err != nil {
		return sample{}, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return sample{}, fmt.Errorf("child %s: %w", j.Scenario.Name, err)
	}
	var s sample
	if err := json.Unmarshal(out, &s); err != nil {
		return sample{}, fmt.Errorf("child %s: bad result: %w", j.Scenario.Name, err)
	}
	return s, nil
}

// childMain is the -child entry point: read a job, run it, print the
// sample.
func childMain() error {
	var j job
	if err := json.NewDecoder(os.Stdin).Decode(&j); err != nil {
		return fmt.Errorf("child: reading job: %w", err)
	}
	s, err := execJob(j)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(s)
}

// execJob runs one job in this process and fills in the host-side
// numbers from the process's own accounting.
func execJob(j job) (sample, error) {
	var s sample
	var err error
	switch {
	case j.SetupBlocks > 0:
		s, err = runSetup(j)
	case j.Grid:
		s, err = runGrid(j)
	default:
		s, err = runScenario(j)
	}
	if err != nil {
		return sample{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.AllocMB = float64(ms.TotalAlloc) / 1e6
	s.Mallocs = ms.Mallocs
	s.GCCount = ms.NumGC
	s.GCPauseMs = float64(ms.PauseTotalNs) / 1e6
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return sample{}, err
	}
	s.CPUS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	s.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB: the same high-water mark as VmHWM
	return s, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func runScenario(j job) (sample, error) {
	clock := startClockSampler()
	start := time.Now()
	res, col, err := scenario.Run(j.Scenario)
	wall := time.Since(start).Seconds()
	clockNs := clock.finish()
	if err != nil {
		return sample{}, err
	}
	s := sample{
		WallS:    wall,
		ClockNs:  clockNs,
		Events:   res.Events,
		Ops:      res.Summary.Flows,
		Failed:   res.Summary.Unfinished,
		Digest:   digestOf(res.Summary, res.Drops, res.UnscheduledDrops),
		Counters: res.Counters,
		Hybrid:   res.Hybrid,
	}
	if j.FCTs {
		flows := append([]metrics.FlowRecord(nil), col.Flows...)
		sort.Slice(flows, func(a, b int) bool { return flows[a].ID < flows[b].ID })
		for _, f := range flows {
			s.FCTps = append(s.FCTps, int64(f.FCT()))
		}
	}
	return s, nil
}

// runSetup times set-up cycles: spec on disk -> Load -> Resolve ->
// BuildFabric (for the grid: Grid.Plan + OpenStore). A cycle is
// sub-millisecond and bimodal (one in a few pays for a GC cycle), so a
// median over single cycles jumps between the modes. Cycles are
// therefore timed in blocks of 50 after ten warm-ups; a block's mean
// holds both modes in their proportion, and the metric is the median
// over blocks.
func runSetup(j job) (sample, error) {
	path := filepath.Join(j.Dir, "spec.json")
	if err := j.Scenario.Save(path); err != nil {
		return sample{}, err
	}
	cycle := func() error {
		loaded, err := scenario.Load(path)
		if err != nil {
			return err
		}
		_, _, n, _, err := scenario.BuildFabric(loaded)
		sinkAny = n
		return err
	}
	if j.Grid {
		grid := gridFor(path, j.Scenario)
		cycle = func() error {
			plan, err := grid.Plan()
			if err != nil {
				return err
			}
			sinkAny = plan
			// One directory for every cycle: the first creates it, the
			// rest reopen it, so the cycles time the store and not the
			// file system's directory creation.
			store, err := runner.OpenStore(filepath.Join(j.Dir, "out"))
			if err != nil {
				return err
			}
			return store.Close()
		}
	}
	const warmups, blockCycles = 10, 50
	for i := 0; i < warmups; i++ {
		if err := cycle(); err != nil {
			return sample{}, err
		}
	}
	var s sample
	for b := 0; b < j.SetupBlocks; b++ {
		start := time.Now()
		for i := 0; i < blockCycles; i++ {
			if err := cycle(); err != nil {
				return sample{}, err
			}
		}
		s.SetupS = append(s.SetupS, time.Since(start).Seconds()/blockCycles)
	}
	return s, nil
}

// digestOf flattens the model outcome: flows, drops and every
// metrics.Summary field, through the summary's own JSON schema so a
// field added to it later is picked up without touching this file.
func digestOf(sum metrics.Summary, drops, unscheduled int64) digest {
	d := digest{
		"drops":             strconv.FormatInt(drops, 10),
		"unscheduled_drops": strconv.FormatInt(unscheduled, 10),
	}
	raw, err := json.Marshal(sum)
	if err != nil {
		panic(err) // a struct of numbers always marshals
	}
	var fields map[string]json.Number
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&fields); err != nil {
		panic(err)
	}
	for k, v := range fields {
		d[k] = v.String()
	}
	return d
}

// timedStore wraps the record store to attribute wall time to
// Store.Put (serialisation, two fsyncs, rename) per job.
type timedStore struct {
	*runner.Store
	mu  sync.Mutex
	put time.Duration
}

func (t *timedStore) Put(rec runner.Record) error {
	start := time.Now()
	err := t.Store.Put(rec)
	d := time.Since(start)
	t.mu.Lock()
	t.put += d
	t.mu.Unlock()
	return err
}

// sweep is the timed part of the sweep-grid workload, the way cmd/sweep
// does it: expand the grid, run it on a pool that persists every
// record, aggregate. It also returns the time spent in Store.Put.
func sweep(grid experiments.Grid, out string) ([]runner.Record, time.Duration, error) {
	plan, err := grid.Plan()
	if err != nil {
		return nil, 0, err
	}
	store, err := runner.OpenStore(out)
	if err != nil {
		return nil, 0, err
	}
	defer store.Close()
	ts := &timedStore{Store: store}
	pool := &runner.Pool{Workers: gridWorkers, Store: ts}
	records, err := pool.Run(context.Background(), plan)
	if err != nil {
		return nil, 0, err
	}
	if groups := runner.Aggregate(records); len(groups) == 0 {
		return nil, 0, fmt.Errorf("grid: aggregate returned no groups")
	}
	return records, ts.put, nil
}

// runGrid runs the sweep-grid workload and reduces its records to a
// sample.
func runGrid(j job) (sample, error) {
	base := filepath.Join(j.Dir, "base.json")
	if err := j.Scenario.Save(base); err != nil {
		return sample{}, err
	}
	grid := gridFor(base, j.Scenario)

	clock := startClockSampler()
	start := time.Now()
	records, put, err := sweep(grid, filepath.Join(j.Dir, "out"))
	wall := time.Since(start).Seconds()
	clockNs := clock.finish()
	if err != nil {
		return sample{}, err
	}

	s := sample{WallS: wall, ClockNs: clockNs, Ops: len(records), StorePutS: put.Seconds()}
	var flows, unfinished int
	var drops, unscheduled int64
	h := sha256.New()
	for _, rec := range records {
		if !rec.OK() {
			s.Failed++
			fmt.Fprintf(os.Stderr, "grid job %s: %s %s\n", rec.ID, rec.Status, rec.Error)
			continue
		}
		r := rec.Result
		s.Events += r.Events
		flows += r.Summary.Flows
		unfinished += r.Summary.Unfinished
		drops += r.Drops
		unscheduled += r.UnscheduledDrops
		for k, v := range r.Counters {
			if s.Counters == nil {
				s.Counters = make(map[string]int64)
			}
			s.Counters[k] += v
		}
		line, err := json.Marshal(r.Summary)
		if err != nil {
			return sample{}, err
		}
		fmt.Fprintf(h, "%s %s\n", rec.ID, line)
	}
	s.Digest = digest{
		"flows":             strconv.Itoa(flows),
		"unfinished":        strconv.Itoa(unfinished),
		"drops":             strconv.FormatInt(drops, 10),
		"unscheduled_drops": strconv.FormatInt(unscheduled, 10),
		"summaries_sha256":  fmt.Sprintf("%x", h.Sum(nil)),
	}
	return s, nil
}

// gridFor is the sweep-grid plan over a base spec on disk. The base
// spec's seed is the plan seed every job seed derives from; its obs
// options apply to every job.
func gridFor(basePath string, base scenario.Scenario) experiments.Grid {
	return experiments.Grid{
		Name:     "sweep-grid",
		Seed:     base.Seed,
		Reps:     gridReps,
		Scenario: basePath,
		Vary:     gridAxes,
		Obs:      base.Obs,
	}
}
