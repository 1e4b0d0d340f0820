package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"abm/internal/metrics"
)

// metricDef names one end-to-end metric. All are host-side costs of
// running the simulator, so lower is better for each; bound is the
// share of the baseline median by which the median may worsen before
// it counts as a regression. gated marks the metrics BENCHMARK.json
// lists: the ones that stay steady when the driver measures them its
// way, ten runs of about ten seconds on ten different seeds.
type metricDef struct {
	name  string
	unit  string
	bound float64
	gated bool
}

var endToEnd = []metricDef{
	// Not gated: the traffic a seed generates differs (events by ±18%
	// between seeds), and the box's clock moves by a quarter in phases.
	{"wall_s", "s", 0.10, false},
	// Not gated: wall_s with the seed's traffic divided out, but still
	// at the mercy of the clock.
	{"ns_per_pkt_hop", "ns", 0.10, false},
	// Gated: ns_per_pkt_hop with the clock divided out as well.
	{"cal_ns_per_pkt_hop", "ns", 0.10, true},
	// Not gated: under Go's GC the high-water mark sits on one of two or
	// three plateaux (heap-goal doublings); which one is a step function
	// of the seed's allocation, so across seeds it spreads by 17–22%.
	{"peak_rss_mb", "MB", 0.15, false},
	// Gated: the bytes the run allocates, which is what a change controls
	// and what RSS follows. It repeats to 0.01% for a seed, but between
	// seeds it steps too (a slice that doubles once more adds 16 MB to
	// the incast cell), hence the wide bound.
	{"alloc_mb", "MB", 0.25, true},
	{"setup_s", "s", 0.25, true},
	// Not gated: 0 on every run, so it has no spread to test; the driver
	// line carries it as attempted/failed/correct.
	{"failed_frac", "ratio", 0, false},
}

// e2eRun is the untraced phase's raw material for one workload.
type e2eRun struct {
	w     workload
	runs  []sample  // timed, telemetry off, one fresh process each
	ref   sample    // packet-hop reference (counters on, hybrid off)
	setup []float64 // seconds per set-up cycle, one value per block
}

// hopCounters are the counters the packet-hop formula reads.
const (
	ctrDataSent  = "model/data_pkts_sent"
	ctrAckSent   = "model/ack_pkts_sent"
	ctrAdmitted  = "model/admitted_pkts"
	ctrDropDeq   = "model/drops_dequeue"
	ctrConsumed  = "model/data_pkts_consumed"
	ctrAckRetire = "model/ack_pkts_retired"
)

var dropCounters = []string{
	"model/drops_threshold", "model/drops_nobuffer", "model/drops_aqm",
	"model/drops_afd", ctrDropDeq,
}

// pktHops counts link traversals: every packet a host NIC emits crosses
// one link, and every packet a switch admits and does not discard at
// dequeue crosses one more. It is a property of the model, not of the
// engine: fusing or removing events does not change it.
func pktHops(c map[string]int64) int64 {
	return c[ctrDataSent] + c[ctrAckSent] + c[ctrAdmitted] - c[ctrDropDeq]
}

// conservation checks that every packet emitted was dropped, consumed
// or retired: nothing leaked and nothing was counted twice.
func conservation(c map[string]int64) error {
	sent := c[ctrDataSent] + c[ctrAckSent]
	sunk := c[ctrConsumed] + c[ctrAckRetire]
	for _, d := range dropCounters {
		sunk += c[d]
	}
	if sent != sunk {
		return fmt.Errorf("packet conservation: %d sent != %d dropped+consumed+retired", sent, sunk)
	}
	return nil
}

// runE2E measures the given workloads with telemetry off. Repetitions
// are interleaved round-robin across workloads, so a burst of noise
// from a neighbour lands on all of them instead of on one. With
// seconds > 0 a workload keeps repeating until it has been measured
// that long (at least three times); otherwise it runs reps(w) times.
func (b *bench) runE2E(ws []workload, reps func(workload) int, seconds float64) ([]*e2eRun, error) {
	out := make([]*e2eRun, len(ws))
	for i, w := range ws {
		root := b.spans.start(w.name, "benchmark.setup", 0)
		ref, err := b.ref(w, root)
		if err != nil {
			return nil, err
		}
		b.spans.end(root)
		out[i] = &e2eRun{w: w, ref: ref}
	}
	spent := make([]time.Duration, len(ws))
	for {
		ran := false
		for i, w := range ws {
			n := len(out[i].runs)
			if seconds > 0 {
				if n >= 3 && spent[i].Seconds() >= seconds {
					continue
				}
			} else if n >= reps(w) {
				continue
			}
			start := time.Now()
			s, err := b.sample(w, variant{}, 0)
			if err != nil {
				return nil, err
			}
			spent[i] += time.Since(start)
			out[i].runs = append(out[i].runs, s)
			// Set-up is timed next to the first five reps, not once, so that
			// its blocks are spread over the same minutes as the runs.
			if n < 5 {
				setup, err := b.measureSetup(w)
				if err != nil {
					return nil, err
				}
				out[i].setup = append(out[i].setup, setup...)
			}
			ran = true
		}
		if !ran {
			return out, nil
		}
	}
}

// measureSetup times what a user pays before the first event runs, in
// a fresh child like every other measurement (in this process the
// cycles would inherit whatever heap the earlier phases left behind).
func (b *bench) measureSetup(w workload) ([]float64, error) {
	dir, err := os.MkdirTemp(b.tmp, "setup-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sc, err := w.spec(b.seed)
	if err != nil {
		return nil, err
	}
	s, err := b.run(b.ctx, job{Scenario: sc, Grid: w.grid, Dir: dir, SetupBlocks: b.setupBlocks})
	if err != nil {
		return nil, fmt.Errorf("set-up of %s: %w", w.name, err)
	}
	return s.SetupS, nil
}

// verdict is the correctness side of one workload's measurement.
type verdict struct {
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Violations []string `json:"violations,omitempty"`
	// DigestChanged reports drift of the seed-42 model digest from the
	// committed one. It is information, not failure: tier-1 tests own
	// model identity, and a reviewed model change may move it.
	DigestChanged bool     `json:"digest_changed"`
	DigestDiff    []string `json:"digest_diff,omitempty"`
	Digest        digest   `json:"digest"`
}

// maxHybridErrPct is the fidelity gate of the hybrid engine: mean flow
// completion time within 1% of the packet engine's.
const maxHybridErrPct = 1.0

// check applies the invariants that define failed_frac. Unfinished
// flows (or grid jobs that did not end ok) fail individually; a
// violated invariant means the run's numbers describe a broken
// simulation, so it fails every operation of the workload.
func (r *e2eRun) check(seed int64) (verdict, error) {
	first := r.runs[0]
	v := verdict{Attempted: first.Ops, Failed: first.Failed, Digest: first.Digest}
	if v.Attempted == 0 {
		v.Attempted = 1
		v.Violations = append(v.Violations, "the run started no operations")
	}
	for i, s := range r.runs[1:] {
		if d := first.Digest.diff(s.Digest); len(d) > 0 {
			v.Violations = append(v.Violations, fmt.Sprintf("rep %d differs from rep 0: %v", i+1, d))
		}
	}
	if err := conservation(r.ref.Counters); err != nil {
		v.Violations = append(v.Violations, err.Error())
	}
	if pktHops(r.ref.Counters) <= 0 {
		v.Violations = append(v.Violations, "the reference run counted no packet hops")
	}
	if r.ref.Failed > 0 {
		v.Violations = append(v.Violations, fmt.Sprintf("reference run left %d operations unfinished", r.ref.Failed))
	}
	if first.Hybrid == nil {
		// Same engine as the reference: counters must not perturb the model.
		if d := first.Digest.diff(r.ref.Digest); len(d) > 0 {
			v.Violations = append(v.Violations, fmt.Sprintf("counters-on run differs from untraced run: %v", d))
		}
	} else if mean, _, err := fctError(first.FCTps, r.ref.FCTps); err != nil {
		v.Violations = append(v.Violations, err.Error())
	} else if mean > maxHybridErrPct {
		v.Violations = append(v.Violations,
			fmt.Sprintf("hybrid mean FCT error %.3f%% exceeds %.1f%%", mean, maxHybridErrPct))
	}
	if len(v.Violations) > 0 {
		v.Failed = v.Attempted
	}

	if seed == expectedSeed {
		want, err := r.w.expectedDigest()
		if err != nil {
			return v, err
		}
		if want != nil {
			v.DigestDiff = want.diff(r.digest())
			v.DigestChanged = len(v.DigestDiff) > 0
		}
	}
	return v, nil
}

// digest is the committed form of the workload's outcome: the model
// digest of the untraced runs plus the reference packet-hop count.
func (r *e2eRun) digest() digest {
	d := digest{"ref_pkt_hops": fmt.Sprint(pktHops(r.ref.Counters))}
	for k, v := range r.runs[0].Digest {
		d[k] = v
	}
	return d
}

// fctError compares per-flow completion times (simulated time) against
// a reference run of the same flows: mean and p99 relative error in
// percent.
func fctError(got, want []int64) (mean, p99 float64, err error) {
	if len(got) == 0 || len(got) != len(want) {
		return 0, 0, fmt.Errorf("flow records do not line up: %d vs %d flows", len(got), len(want))
	}
	errs := make([]float64, len(got))
	for i := range got {
		if want[i] <= 0 {
			return 0, 0, fmt.Errorf("flow %d has no reference completion time", i)
		}
		errs[i] = 100 * math.Abs(float64(got[i]-want[i])) / float64(want[i])
	}
	return metrics.Mean(errs), metrics.Percentile(errs, 99), nil
}

// metrics reduces the raw runs to the end-to-end metrics.
// cal_ns_per_pkt_hop is ns_per_pkt_hop divided by the cost of one clock-
// kernel operation measured during the same run (see calib.go), i.e.
// rescaled to a reference clock at which that operation takes 1 ns.
func (r *e2eRun) metrics(v verdict) map[string]stat {
	hops := float64(pktHops(r.ref.Counters))
	var wall, perHop, calPerHop, rss, alloc []float64
	for _, s := range r.runs {
		wall = append(wall, s.WallS)
		perHop = append(perHop, s.WallS*1e9/hops)
		calPerHop = append(calPerHop, s.WallS*1e9/hops/s.ClockNs)
		rss = append(rss, s.PeakRSSMB)
		alloc = append(alloc, s.AllocMB)
	}
	return map[string]stat{
		"wall_s":             summarize("s", wall),
		"ns_per_pkt_hop":     summarize("ns", perHop),
		"cal_ns_per_pkt_hop": summarize("ns", calPerHop),
		"peak_rss_mb":        summarize("MB", rss),
		"alloc_mb":           summarize("MB", alloc),
		"setup_s":            summarize("s", r.setup),
		"failed_frac":        one("ratio", float64(v.Failed)/float64(v.Attempted)),
	}
}
