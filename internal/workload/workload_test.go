package workload

import (
	"math"
	"strings"
	"testing"

	"abm/internal/cc"
	"abm/internal/metrics"
	"abm/internal/sim"
	"abm/internal/topo"
	"abm/internal/units"
)

func testNet(seed int64) (*sim.Simulator, *topo.Network) {
	s := sim.New(seed)
	n := topo.NewNetwork(s, topo.Config{
		NumSpines:    2,
		NumLeaves:    2,
		HostsPerLeaf: 4,
		LinkRate:     10 * units.GigabitPerSec,
		LinkDelay:    10 * units.Microsecond,
	})
	return s, n
}

// run schedules the workloads' stream on a fresh serial fabric, runs
// the traffic to horizon plus drain, and returns the collector.
func run(t *testing.T, simSeed int64, horizon, drain units.Time, ws *WebSearch, ic *Incast) *metrics.Collector {
	t.Helper()
	s, n := testNet(simSeed)
	col := &metrics.Collector{}
	st, err := NewStream(n, col, horizon, nil, ws, ic)
	if err != nil {
		t.Fatal(err)
	}
	st.Schedule()
	s.RunUntil(horizon + drain)
	n.Stop()
	return col
}

// queries counts distinct incast launch instants: every response flow
// of a query shares its start time.
func queries(col *metrics.Collector) int {
	seen := map[units.Time]bool{}
	for _, f := range col.Flows {
		if f.Class == metrics.ClassIncast {
			seen[f.Start] = true
		}
	}
	return len(seen)
}

func reno() cc.Algorithm { return cc.NewReno() }

func TestWebSearchOfferedLoad(t *testing.T) {
	dur := 100 * units.Millisecond
	col := run(t, 5, dur, 0, &WebSearch{Load: 0.4, CC: func() cc.Algorithm { return cc.NewDCTCP() }}, nil)

	// Offered inter-rack bytes / time should be ~40% of the bisection
	// capacity (2 leaves x 2 spines x 10G = 40 Gb/s), scaled by the
	// inter-rack fraction of uniform traffic (8/15).
	var offered units.ByteCount
	for _, f := range col.Flows {
		offered += f.Size
	}
	bisection := float64(10*units.GigabitPerSec) * 4
	interRackFrac := 8.0 / 15
	gotLoad := float64(offered.Bits()) * interRackFrac / dur.Seconds() / bisection
	// Heavy-tailed sizes make short-run load noisy; accept a wide band.
	if gotLoad < 0.15 || gotLoad > 0.8 {
		t.Fatalf("offered load = %.3f, want ~0.4", gotLoad)
	}
	if len(col.Flows) < 10 {
		t.Fatalf("too few flows: %d", len(col.Flows))
	}
	for _, f := range col.Flows {
		if f.Start > dur {
			t.Fatalf("flow started at %v past the horizon %v", f.Start, dur)
		}
	}
}

func TestWebSearchFlowsComplete(t *testing.T) {
	col := run(t, 6, 50*units.Millisecond, 2*units.Second,
		&WebSearch{Load: 0.2, CC: func() cc.Algorithm { return cc.NewDCTCP() }}, nil)
	if col.FinishedCount() == 0 {
		t.Fatal("no flows finished")
	}
	for _, f := range col.Flows {
		if f.Finished && f.Slowdown() < 0.999 {
			t.Fatalf("flow %d slowdown %.3f below 1 (ideal FCT too large?)", f.ID, f.Slowdown())
		}
	}
}

func TestWebSearchValidation(t *testing.T) {
	_, n := testNet(1)
	defer n.Stop()
	for want, ws := range map[string]*WebSearch{
		"load 0 out of":                {Load: 0, CC: reno},
		"load 1.5 out of":              {Load: 1.5, CC: reno},
		"cc factory":                   {Load: 0.4},
		"load 1e-30: mean arrival gap": {Load: 1e-30, CC: reno},
	} {
		if _, err := NewStream(n, &metrics.Collector{}, units.Millisecond, nil, ws, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%+v: err = %v, want %q", ws, err, want)
		}
	}
}

func TestWebSearchPickCC(t *testing.T) {
	col := run(t, 7, 30*units.Millisecond, 0, &WebSearch{
		Load: 0.3,
		PickCC: func(i int) (cc.Factory, uint8) {
			if i%2 == 0 {
				return func() cc.Algorithm { return cc.NewCubic() }, 0
			}
			return func() cc.Algorithm { return cc.NewDCTCP() }, 1
		},
	}, nil)
	var p0, p1 int
	for _, f := range col.Flows {
		if f.Prio == 0 {
			p0++
		} else {
			p1++
		}
	}
	if p0 == 0 || p1 == 0 {
		t.Fatalf("PickCC priorities not both used: %d/%d", p0, p1)
	}
}

func TestIncastFanInDifferentRack(t *testing.T) {
	_, n := testNet(8)
	defer n.Stop()
	col := run(t, 8, 50*units.Millisecond, 2*units.Second, nil, &Incast{
		RequestSize: 100 * units.Kilobyte,
		Fanout:      4,
		QueryRate:   200,
		CC:          reno,
	})
	q := queries(col)
	if q == 0 {
		t.Fatal("no queries issued")
	}
	wantFlows := q * 4
	if len(col.Flows) != wantFlows {
		t.Fatalf("flows = %d, want %d (queries * fanout)", len(col.Flows), wantFlows)
	}
	// Per-flow size = request/fanout, and every responder sits in a rack
	// other than the requester's, which the ideal FCT's hop count shows.
	crossRack := n.IdealFCT(0, n.HostsPerGroup(), 25*units.Kilobyte)
	for _, f := range col.Flows {
		if f.Size != 25*units.Kilobyte {
			t.Fatalf("flow size %v, want 25KB", f.Size)
		}
		if f.Class != metrics.ClassIncast {
			t.Fatal("class not incast")
		}
		if f.Ideal != crossRack {
			t.Fatalf("flow %d ideal FCT %v, want the cross-rack %v", f.ID, f.Ideal, crossRack)
		}
	}
	if col.FinishedCount() != wantFlows {
		t.Fatalf("finished %d/%d", col.FinishedCount(), wantFlows)
	}
}

func TestIncastFanoutCappedByCandidates(t *testing.T) {
	col := run(t, 9, 30*units.Millisecond, 500*units.Millisecond, nil, &Incast{
		RequestSize: 40 * units.Kilobyte,
		Fanout:      100, // more than hosts in other racks (4)
		QueryRate:   100,
		CC:          reno,
	})
	q := queries(col)
	if q == 0 {
		t.Fatal("no queries")
	}
	perQuery := float64(len(col.Flows)) / float64(q)
	if math.Abs(perQuery-4) > 0.001 {
		t.Fatalf("flows per query = %.2f, want 4 (capped)", perQuery)
	}
}

func TestIncastValidation(t *testing.T) {
	_, n := testNet(1)
	defer n.Stop()
	for want, ic := range map[string]*Incast{
		"request size":                     {Fanout: 4, QueryRate: 1, CC: reno},
		"fanout":                           {RequestSize: 1000, QueryRate: 1, CC: reno},
		"query rate 0/s":                   {RequestSize: 1000, Fanout: 4, CC: reno},
		"cc factory":                       {RequestSize: 1000, Fanout: 4, QueryRate: 1},
		"query rate 1e+13/s: mean arrival": {RequestSize: 1000, Fanout: 4, QueryRate: 1e13, CC: reno},
	} {
		if _, err := NewStream(n, &metrics.Collector{}, units.Millisecond, nil, nil, ic); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%+v: err = %v, want %q", ic, err, want)
		}
	}
}

func TestLongFlowsValidation(t *testing.T) {
	_, n := testNet(1)
	defer n.Stop()
	for want, lf := range map[string]*LongFlows{
		"size":       {CC: reno},
		"cc factory": {Size: 1000},
	} {
		if _, err := NewStream(n, &metrics.Collector{}, units.Millisecond, lf, nil, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%+v: err = %v, want %q", lf, err, want)
		}
	}
}

func TestIncastPickPrio(t *testing.T) {
	next := uint8(0)
	col := run(t, 12, 20*units.Millisecond, 0, nil, &Incast{
		RequestSize: 40 * units.Kilobyte,
		Fanout:      2,
		QueryRate:   500,
		CC:          reno,
		PickPrio:    func() uint8 { next = (next + 1) % 2; return next },
	})
	var p0, p1 int
	for _, f := range col.Flows {
		if f.Prio == 0 {
			p0++
		} else {
			p1++
		}
	}
	if p0 == 0 || p1 == 0 {
		t.Fatalf("PickPrio not applied: %d/%d", p0, p1)
	}
}

func TestWorkloadSeedIsolation(t *testing.T) {
	// Two runs with the same workload seed but different fabric seeds
	// must generate identical flow sequences.
	sizes := func(simSeed int64) []units.ByteCount {
		col := run(t, simSeed, 10*units.Millisecond, 0, &WebSearch{Load: 0.3, CC: reno, Seed: 777}, nil)
		out := make([]units.ByteCount, len(col.Flows))
		for i, f := range col.Flows {
			out[i] = f.Size
		}
		return out
	}
	a, b := sizes(1), sizes(99)
	if len(a) != len(b) {
		t.Fatalf("flow counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestStreamMergeOrder pins the merge: collector rows (and flow IDs)
// follow launch time, web search before incast on ties, and the serial
// chain leaves at most one arrival pending in the calendar.
func TestStreamMergeOrder(t *testing.T) {
	s, n := testNet(3)
	defer n.Stop()
	col := &metrics.Collector{}
	st, err := NewStream(n, col, 20*units.Millisecond, nil,
		&WebSearch{Load: 0.4, CC: reno},
		&Incast{RequestSize: 40 * units.Kilobyte, Fanout: 4, QueryRate: 2000, CC: reno})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Pending()
	st.Schedule()
	if got := s.Pending() - before; got != 1 {
		t.Fatalf("Schedule planted %d events, want the one chained arrival", got)
	}
	s.RunUntil(20 * units.Millisecond)
	var ws, ic int
	for i, f := range col.Flows {
		if f.ID != uint64(i+1) {
			t.Fatalf("row %d has flow ID %d, want %d", i, f.ID, i+1)
		}
		if i > 0 && f.Start < col.Flows[i-1].Start {
			t.Fatalf("row %d starts at %v before row %d at %v", i, f.Start, i-1, col.Flows[i-1].Start)
		}
		if f.Class == metrics.ClassWebSearch {
			ws++
		} else {
			ic++
		}
	}
	if ws < 10 || ic < 10 {
		t.Fatalf("too few flows for a meaningful check: %d web search, %d incast", ws, ic)
	}
}
