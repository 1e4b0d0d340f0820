package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"

	"abm/internal/experiments"
	"abm/internal/obs"
	"abm/internal/scenario"
	"abm/internal/units"
)

// The specs are copies of scenarios/*.json with benchmark-sized
// durations, so editing scenarios/ never silently changes what the
// benchmark measures.
//
//go:embed workloads/*.json expected/*.json
var files embed.FS

// workload is one fixed input set. Its spec is workloads/<name>.json;
// reps is the default number of timed runs, chosen so that every
// workload gets about the same measured wall time.
type workload struct {
	name string
	why  string
	reps int
	// grid runs the spec as the base scenario of a cmd/sweep-style grid
	// (gridAxes x gridReps jobs) instead of as one scenario.Run.
	grid bool
}

var workloads = []workload{
	{name: "incast-leafspine", reps: 5,
		why: "paper Fig 6 cell on the serial engine: MMU admission under heavy threshold drops, retransmits, RTO heap fallback and flow churn"},
	{name: "incast-leafspine-shard1", reps: 5,
		why: "same traffic on sim.Parallel with one shard: the gap to incast-leafspine is the cost of the second engine"},
	{name: "fattree-dctcp", reps: 5,
		why: "three-tier fat-tree with DCTCP: up to 5 switch hops per packet, so routing, link/port tx and ECN marking dominate and drops matter little"},
	{name: "tofino-4q-dwrr", reps: 5,
		why: "4 queues per port, DWRR, per-priority alphas, shallow buffer: the multi-queue MMU path (n_p > 1) that a single-queue speed-up could slow"},
	{name: "longflows-packet", reps: 5,
		why: "16 steady long flows, no drops, no churn: bare forwarding where event queue, link/port and ACK clocking dominate; fidelity reference for longflows-hybrid"},
	{name: "longflows-hybrid", reps: 15,
		why: "same flows with the fluid/packet hybrid on: internal/hybrid does the work and the packet path almost none, so packet-path changes should not move it"},
	{name: "sweep-grid", reps: 5, grid: true,
		why: "24 ten-millisecond jobs through Grid.Plan, runner.Pool and runner.Store: per-job fixed cost (resolve, fabric build, summarize, JSON, fsync) dominates"},
}

// Grid shape of the sweep-grid workload: 4 x 2 x 3 = 24 jobs on two
// workers, the size cmd/sweep users typically run on a laptop.
var gridAxes = []experiments.PathAxis{
	{Path: "switch.bm", Values: []string{"DT", "ABM", "CS", "IB"}},
	{Path: "workload.load", Values: []string{"0.4", "0.6"}},
}

const (
	gridReps    = 3
	gridWorkers = 2
)

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// specBytes returns the committed spec of a workload.
func (w workload) specBytes() ([]byte, error) {
	return files.ReadFile("workloads/" + w.name + ".json")
}

// spec parses the workload's committed spec and applies the benchmark
// seed, which overrides whatever seed the file carries.
func (w workload) spec(seed int64) (scenario.Scenario, error) {
	data, err := w.specBytes()
	if err != nil {
		return scenario.Scenario{}, err
	}
	sc, err := scenario.Parse(data)
	if err != nil {
		return scenario.Scenario{}, fmt.Errorf("workload %s: %w", w.name, err)
	}
	sc.Seed = seed
	return sc, nil
}

// variant is a controlled departure from a workload's spec. Every
// comparison the traced phase reports (hybrid vs packet, shard1 vs
// serial, telemetry levels) is the same spec and seed under two
// variants, so the only difference between the two runs is the one the
// metric names.
type variant struct {
	counters  bool // obs counters on: exact operation counts
	hists     bool // obs histograms on as well
	events    bool // full event trace to a file in the scratch directory
	hybridOff bool // force the pure packet engine
	serial    bool // force the serial engine (shards 0)
	shards2   bool // force the parallel engine with two shards
	cut       bool // shorten the simulated duration to traceCut
}

// traceCut bounds the runs that record a full event trace: at the
// workloads' full durations the trace would be gigabytes.
const traceCut = scenario.Duration(20 * units.Millisecond)

func (v variant) apply(sc scenario.Scenario, dir string, grid bool) scenario.Scenario {
	sc = sc.Clone()
	if v.hybridOff {
		sc.Hybrid.Enabled = false
	}
	if v.serial {
		sc.Shards = 0
	}
	if v.shards2 {
		sc.Shards = 2
	}
	if v.cut && sc.Duration > traceCut {
		sc.Duration = traceCut
	}
	sc.Obs = obs.Options{Counters: v.counters || v.hists, Hists: v.hists}
	if v.events {
		// A grid takes a directory and writes one file per job.
		sc.Obs.EventsFile = filepath.Join(dir, "events.ndjson")
		sc.Obs.PerJob = grid
	}
	return sc
}

// expectedDigest returns the committed seed-42 digest of a workload, or
// nil when none is committed yet.
func (w workload) expectedDigest() (digest, error) {
	data, err := files.ReadFile("expected/" + w.name + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	var e expectedFile
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("expected/%s.json: %w", w.name, err)
	}
	return e.Digest, nil
}

// expectedSeed is the only seed expected digests are committed for.
const expectedSeed = 42

type expectedFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Digest   digest `json:"digest"`
}

// digest is the model-level outcome of a run, one string per field so
// that a drift can be reported field by field. It holds nothing that
// depends on the engine (no event counts), so a pure speed-up leaves
// it unchanged.
type digest map[string]string

// diff lists the fields on which two digests disagree.
func (d digest) diff(o digest) []string {
	var out []string
	for k, v := range d {
		if ov, ok := o[k]; !ok {
			out = append(out, fmt.Sprintf("%s: %s -> (missing)", k, v))
		} else if ov != v {
			out = append(out, fmt.Sprintf("%s: %s -> %s", k, v, ov))
		}
	}
	for k, ov := range o {
		if _, ok := d[k]; !ok {
			out = append(out, fmt.Sprintf("%s: (missing) -> %s", k, ov))
		}
	}
	sort.Strings(out)
	return out
}
