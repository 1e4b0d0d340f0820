package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"abm/internal/cc"
	"abm/internal/obs"
	"abm/internal/scenario"
	"abm/internal/units"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	st := summarize("ms", vals)
	want := stat{Unit: "ms", Median: 5.5, Q1: 2.75, Q3: 8.25, Min: 1, Max: 10, N: 10}
	if st != want {
		t.Fatalf("summarize = %+v, want %+v", st, want)
	}
	if got := st.spread(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
	if vals[0] != 7 {
		t.Fatal("summarize sorted its input in place")
	}
	if st := one("s", 3.5); st.Median != 3.5 || st.Q1 != 3.5 || st.Q3 != 3.5 || st.N != 1 {
		t.Fatalf("single sample: %+v", st)
	}
	if st := summarize("s", []float64{2, 4, 9}); st.Median != 4 || st.Q1 != 2 || st.Q3 != 9 {
		t.Fatalf("three samples: %+v", st)
	}
	if st := summarize("s", nil); st.N != 0 || st.spread() != 0 {
		t.Fatalf("no samples: %+v", st)
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// perLayerUnits is every per-layer metric with its unit.
func perLayerUnits() map[string]string {
	units := make(map[string]string)
	for _, p := range probes() {
		units[p.metric] = p.unit
	}
	for _, d := range workloadLayerMetrics {
		units[d.name] = d.unit
	}
	return units
}

func TestNamesAndCounts(t *testing.T) {
	seen := make(map[string]bool)
	check := func(kind, name, unit string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q does not match %v", kind, name, unit, unitRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name, "")
		if len(w.why) > 200 || strings.Contains(w.why, "\n") || w.why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
		if w.reps < 3 {
			t.Errorf("workload %s: %d reps is too few for a median", w.name, w.reps)
		}
	}
	for _, d := range endToEnd {
		check("end-to-end", d.name, d.unit)
		if d.bound < 0 || d.bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside [0, 0.25]", d.name, d.bound)
		}
	}
	names := perLayerNames()
	pu := perLayerUnits()
	for _, n := range names {
		check("per-layer", n, pu[n])
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(names); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
}

// TestManifestMatchesCode keeps BENCHMARK.json and the code's metric
// tables from drifting apart: the driver refuses a run whose output
// keys differ from the manifest's.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, code {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.gated {
			gated = append(gated, d)
		}
	}
	if len(m.EndToEnd) != len(gated) {
		t.Fatalf("manifest has %d end-to-end metrics, code gates %d", len(m.EndToEnd), len(gated))
	}
	setup := false
	for i, want := range gated {
		got := m.EndToEnd[i]
		if got.Name != want.name || got.Unit != want.unit || got.Bound != want.bound || got.Better != "lower" {
			t.Errorf("end-to-end %d: manifest %+v, code %+v", i, got, want)
		}
		if got.Bound <= 0 {
			t.Errorf("end-to-end %s: the driver needs a positive bound", want.name)
		}
		setup = setup || (want.name == "setup_s" && got.Unit == "s")
	}
	if !setup {
		t.Error("manifest lacks the setup_s metric")
	}
	pu := perLayerUnits()
	if len(m.PerLayer) != len(pu) {
		t.Errorf("manifest has %d per-layer metrics, code has %d", len(m.PerLayer), len(pu))
	}
	for _, pl := range m.PerLayer {
		unit, ok := pu[pl.Name]
		if !ok || unit != pl.Unit {
			t.Errorf("per-layer %s [%s]: code has unit %q (known: %v)", pl.Name, pl.Unit, unit, ok)
		}
		if pl.Better != "lower" && pl.Better != "higher" {
			t.Errorf("per-layer %s: better = %q", pl.Name, pl.Better)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
}

func TestWorkloadSpecsResolve(t *testing.T) {
	entries, err := files.ReadDir("workloads")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(workloads) {
		t.Errorf("%d spec files for %d workloads", len(entries), len(workloads))
	}
	for _, e := range entries {
		w, err := findWorkload(strings.TrimSuffix(e.Name(), ".json"))
		if err != nil {
			t.Errorf("spec file without a workload: %v", err)
			continue
		}
		sc, err := w.spec(7)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Seed != 7 || sc.Name != w.name {
			t.Errorf("%s: seed %d name %q after override", w.name, sc.Seed, sc.Name)
		}
		if _, err := sc.Resolve(); err != nil {
			t.Errorf("%s does not resolve: %v", w.name, err)
		}
		if _, err := w.expectedDigest(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

func TestVariantApply(t *testing.T) {
	w, _ := findWorkload("longflows-hybrid")
	sc, err := w.spec(1)
	if err != nil {
		t.Fatal(err)
	}
	got := variant{counters: true, hybridOff: true, shards2: true, cut: true, events: true}.apply(sc, "/d", true)
	if got.Hybrid.Enabled || got.Shards != 2 || got.Duration != traceCut || !got.Obs.Counters ||
		got.Obs.EventsFile != filepath.Join("/d", "events.ndjson") || !got.Obs.PerJob {
		t.Errorf("variant not applied: %+v", got)
	}
	if !sc.Hybrid.Enabled || sc.Obs.Active() {
		t.Error("apply mutated its input")
	}
	if same := (variant{}).apply(sc, "/d", false); !same.Hybrid.Enabled || same.Obs.Active() || same.Duration != sc.Duration {
		t.Errorf("empty variant changed the spec: %+v", same)
	}
}

// testBench runs jobs in-process on 1 ms cuts of the workloads, with
// the long flows cut from 100 MB to 500 KB.
func testBench(t *testing.T) *bench {
	t.Helper()
	b := newBench(context.Background(), expectedSeed, t.TempDir())
	b.run = func(_ context.Context, j job) (sample, error) { return execJob(j) }
	b.shrink = func(sc *scenario.Scenario) {
		sc.Duration = scenario.Duration(units.Millisecond)
		if lf := &sc.Workload.LongFlows; lf.FlowKB > 500 {
			lf.FlowKB = 500
		}
	}
	b.setupBlocks = 3
	b.probeBatches = 1
	b.probeBatchTime = 50 * time.Microsecond
	return b
}

// TestEveryWorkloadPath drives both phases of every workload once and
// checks that every metric comes out under its declared name and unit
// and that no check fails.
func TestEveryWorkloadPath(t *testing.T) {
	b := testBench(t)
	// Shares only need a cost per probe; the probes have their own test.
	fake := make(map[string]probeResult)
	for _, p := range probes() {
		fake[p.metric] = probeResult{one(p.unit, 1), 1}
	}
	runs, err := b.runE2E(workloads, func(workload) int { return 2 }, 0)
	if err != nil {
		t.Fatal(err)
	}
	units := perLayerUnits()
	for _, r := range runs {
		if len(r.runs) != 2 || len(r.setup) != 2*3 {
			t.Errorf("%s: %d runs, %d set-up blocks", r.w.name, len(r.runs), len(r.setup))
		}
		v, err := r.check(1) // not the expected seed: the cut changes the digest
		if err != nil {
			t.Fatal(err)
		}
		// The hybrid fidelity gate is tuned for the full 25 ms run.
		if v.Failed != 0 && !strings.Contains(strings.Join(v.Violations, ";"), "hybrid mean FCT") {
			t.Errorf("%s: %d of %d failed: %v", r.w.name, v.Failed, v.Attempted, v.Violations)
		}
		em := r.metrics(v)
		for _, d := range endToEnd {
			st, ok := em[d.name]
			if !ok || st.Unit != d.unit || st.N == 0 {
				t.Errorf("%s: end-to-end %s = %+v", r.w.name, d.name, st)
			}
			if d.name != "failed_frac" && !(st.Median > 0) {
				t.Errorf("%s: end-to-end %s is %v, must be positive", r.w.name, d.name, st.Median)
			}
		}
		lm, err := b.traceWorkload(r, fake)
		if err != nil {
			t.Fatalf("%s: %v", r.w.name, err)
		}
		if len(lm) != len(workloadLayerMetrics) {
			t.Errorf("%s: %d per-layer metrics, table has %d", r.w.name, len(lm), len(workloadLayerMetrics))
		}
		for _, d := range workloadLayerMetrics {
			st, ok := lm[d.name]
			if !ok || st.Unit != units[d.name] || st.N == 0 || math.IsNaN(st.Median) || math.IsInf(st.Median, 0) {
				t.Errorf("%s: per-layer %s = %+v (present %v)", r.w.name, d.name, st, ok)
			}
		}
		if lm["sim.pkt_hops"].Median <= 0 || lm["sim.events"].Median <= 0 {
			t.Errorf("%s: no work counted: %+v", r.w.name, lm)
		}
	}
	if len(b.spans.spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, s := range b.spans.spans {
		if s.EndNs < s.StartNs || s.Trace == "" || s.Name == "" {
			t.Fatalf("bad span %+v", s)
		}
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := b.spans.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != len(b.spans.spans) {
		t.Errorf("%d span lines for %d spans", n, len(b.spans.spans))
	}
}

func TestEveryProbeRuns(t *testing.T) {
	b := testBench(t)
	got, err := b.probeMetrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probes() {
		st := got[p.metric]
		if st.Unit != p.unit || st.N != 1 || !(st.Median > 0) || !(st.clockNs > 0) {
			t.Errorf("probe %s = %+v", p.metric, st)
		}
	}
	var batches int
	for _, s := range b.spans.spans {
		if s.Trace == "probes" && s.Parent != 0 {
			batches++
		}
	}
	if batches != len(probes()) {
		t.Errorf("%d batch spans for %d probes of one batch each", batches, len(probes()))
	}
}

// TestPktHopsHandCount checks the packet-hop formula against a count
// made by hand: on the two-host fabric every packet crosses exactly two
// links (host -> switch, switch -> host), one ACK answers each data
// packet, and a ten-packet flow fits the initial window with no drop,
// so the flow is 10 data + 10 ACK packets x 2 links = 40 hops.
func TestPktHopsHandCount(t *testing.T) {
	sess, err := obs.NewSession(obs.Options{Counters: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := newTwoHostFabric(1, sess.ShardSink(0))
	const pkts = 10
	done := false
	f.a.StartFlow(1, 2, pkts*1440, 0, cc.NewReno(), func(units.Time) { done = true })
	f.s.RunUntil(10 * units.Millisecond)
	if !done {
		t.Fatal("flow did not finish")
	}
	c := sess.Totals()
	if err := conservation(c); err != nil {
		t.Fatal(err)
	}
	var delivered int64
	for _, l := range f.links {
		delivered += l.Delivered
	}
	if got := pktHops(c); got != 4*pkts || got != delivered {
		t.Fatalf("pktHops = %d, links delivered %d, hand count %d (counters %v)", got, delivered, 4*pkts, c)
	}
	// A leaked packet must be caught.
	c[ctrConsumed]--
	if conservation(c) == nil {
		t.Fatal("conservation accepted a lost packet")
	}
}

func TestChecks(t *testing.T) {
	w := workloads[0]
	good := map[string]int64{ctrDataSent: 10, ctrAckSent: 10, ctrAdmitted: 20, ctrConsumed: 10, ctrAckRetire: 10}
	d := digest{"flows": "3", "drops": "0"}
	ok := &e2eRun{w: w, runs: []sample{{Ops: 3, Digest: d}, {Ops: 3, Digest: d}},
		ref: sample{Ops: 3, Digest: d, Counters: good}}
	v, err := ok.check(1)
	if err != nil || v.Failed != 0 || v.Attempted != 3 || len(v.Violations) != 0 {
		t.Fatalf("clean run: %+v %v", v, err)
	}

	unfinished := *ok
	unfinished.runs = []sample{{Ops: 3, Failed: 1, Digest: d}}
	if v, _ := unfinished.check(1); v.Failed != 1 {
		t.Errorf("one unfinished flow: %+v", v)
	}
	drift := *ok
	drift.runs = []sample{{Ops: 3, Digest: d}, {Ops: 3, Digest: digest{"flows": "3", "drops": "1"}}}
	if v, _ := drift.check(1); v.Failed != 3 || len(v.Violations) == 0 {
		t.Errorf("reps that differ must fail every op: %+v", v)
	}
	leak := *ok
	leak.ref.Counters = map[string]int64{ctrDataSent: 10, ctrAdmitted: 5, ctrConsumed: 9}
	if v, _ := leak.check(1); v.Failed != 3 {
		t.Errorf("broken conservation must fail every op: %+v", v)
	}

	if got := d.diff(digest{"flows": "4", "extra": "1"}); len(got) != 3 {
		t.Errorf("diff = %v", got)
	}
	mean, p99, err := fctError([]int64{101, 100}, []int64{100, 100})
	if err != nil || math.Abs(mean-0.5) > 1e-9 || math.Abs(p99-1) > 1e-9 {
		t.Errorf("fctError = %v %v %v", mean, p99, err)
	}
	if _, _, err := fctError([]int64{1}, nil); err == nil {
		t.Error("fctError accepted mismatched flow sets")
	}
}

func TestDriverLine(t *testing.T) {
	doc := document{
		Probes: map[string]stat{"eventq.cancel_ns": one("ns", 3)},
		Workloads: []workloadReport{{
			Name:     "w",
			EndToEnd: map[string]stat{"cal_ns_per_pkt_hop": one("ns", 1.5), "alloc_mb": one("MB", 40), "setup_s": one("s", 0.1), "wall_s": one("s", 3)},
			PerLayer: map[string]stat{"sim.events": one("count", 9)},
			Checks:   verdict{Attempted: 5, Failed: 0},
		}},
	}
	for _, perLayer := range []bool{false, true} {
		var sb strings.Builder
		if err := doc.printDriverLine(&sb, perLayer); err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
			t.Fatal(err)
		}
		want := 3
		if perLayer {
			want = 2
		}
		if !got.Correct || got.Attempted != 5 || len(got.Metrics) != want || strings.Count(sb.String(), "\n") != 1 {
			t.Errorf("perLayer=%v: %s", perLayer, sb.String())
		}
	}
}
