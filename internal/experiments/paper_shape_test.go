package experiments

import (
	"testing"

	"abm/internal/metrics"
	"abm/internal/scenario"
	"abm/internal/units"
)

// These tests assert the paper's qualitative claims on the small fabric:
// the direction of every headline comparison must reproduce even at
// reduced scale. Absolute magnitudes are checked loosely; EXPERIMENTS.md
// records the medium-scale numbers.

func runShape(t *testing.T, bmName string, load float64) scenario.Result {
	t.Helper()
	return run(t, cell(preset(t, "small", 42, 0), bmName, load, "cubic", 0.3))
}

// TestABMBeatsDTOnIncastTail is the paper's headline (Fig. 6a): ABM
// improves the 99th-percentile FCT slowdown of incast flows over DT,
// with the gap widening at load.
func TestABMBeatsDTOnIncastTail(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	dt := runShape(t, "DT", 0.6)
	abm := runShape(t, "ABM", 0.6)
	if abm.Summary.P99IncastSlowdown >= dt.Summary.P99IncastSlowdown {
		t.Fatalf("ABM incast p99 %.1f must beat DT %.1f",
			abm.Summary.P99IncastSlowdown, dt.Summary.P99IncastSlowdown)
	}
	// The improvement should be substantial (paper: 90%+ at high load;
	// accept anything above 2x at this scale).
	if abm.Summary.P99IncastSlowdown*2 > dt.Summary.P99IncastSlowdown {
		t.Fatalf("improvement too small: ABM %.1f vs DT %.1f",
			abm.Summary.P99IncastSlowdown, dt.Summary.P99IncastSlowdown)
	}
}

// TestABMOnParThroughput is Fig. 6d: ABM must not sacrifice long-flow
// throughput for burst absorption.
func TestABMOnParThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	dt := runShape(t, "DT", 0.6)
	abm := runShape(t, "ABM", 0.6)
	if abm.Summary.AvgThroughputFrac < 0.8*dt.Summary.AvgThroughputFrac {
		t.Fatalf("ABM throughput %.2f sacrificed vs DT %.2f",
			abm.Summary.AvgThroughputFrac, dt.Summary.AvgThroughputFrac)
	}
}

// TestCSHasHighestOccupancy is Fig. 6c: complete sharing fills the
// buffer; ABM keeps tail occupancy well below it.
func TestCSHasHighestOccupancy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	cs := runShape(t, "CS", 0.6)
	abm := runShape(t, "ABM", 0.6)
	if cs.Summary.P99BufferFrac < 0.6 {
		t.Fatalf("CS p99 occupancy %.2f implausibly low", cs.Summary.P99BufferFrac)
	}
	if abm.Summary.P99BufferFrac >= cs.Summary.P99BufferFrac {
		t.Fatalf("ABM occupancy %.2f must stay below CS %.2f",
			abm.Summary.P99BufferFrac, cs.Summary.P99BufferFrac)
	}
}

// TestNoUnscheduledDropsUnderABM verifies §3.3's mechanism directly:
// with alpha=64 plus headroom, first-RTT packets survive even bursts
// that make DT drop them.
func TestNoUnscheduledDropsUnderABM(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	countUnsched := func(res scenario.Result) int64 { return res.UnscheduledDrops }
	dt := runShape(t, "DT", 0.6)
	abm := runShape(t, "ABM", 0.6)
	if countUnsched(abm) > countUnsched(dt)/10 {
		t.Fatalf("ABM unscheduled drops %d, DT %d: protection not working",
			countUnsched(abm), countUnsched(dt))
	}
}

// TestShallowBufferShape is Fig. 11's direction: DT degrades sharply in
// a Tofino-sized buffer while ABM stays close to its Trident2
// performance.
func TestShallowBufferShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	run := func(bmName string, kb float64) float64 {
		sc := cell(preset(t, "small", 42, 0), bmName, 0.4, "dctcp", 0.25*9.6/kb)
		sc.Buffer.KBPerPortPerGbps = kb
		return run(t, sc).Summary.P99IncastSlowdown
	}
	dtShallow := run("DT", 3.44)
	abmShallow := run("ABM", 3.44)
	if abmShallow >= dtShallow {
		t.Fatalf("in a Tofino buffer ABM (%.1f) must beat DT (%.1f)", abmShallow, dtShallow)
	}
}

// TestApproxInterpolatesBetweenABMAndDT is Fig. 12's direction: a fast
// control plane approximates ABM; a slow one degenerates toward DT.
func TestApproxInterpolatesBetweenABMAndDT(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	baseRTT := 80 * units.Microsecond
	run := func(bmName string, interval units.Time) float64 {
		sc := cell(preset(t, "small", 42, 0), bmName, 0.4, "cubic", 0.5)
		sc.Switch.UpdateInterval = scenario.Duration(interval)
		sc.Buffer.QueuesPerPort = 4
		sc.Workload.RandomPrio = true
		return run(t, sc).Summary.P99IncastSlowdown
	}
	fast := run("ABM-approx", baseRTT)
	dt := run("DT", 0)
	if fast >= dt {
		t.Fatalf("fast approx (%.1f) should beat DT (%.1f)", fast, dt)
	}
}

// rtoFlows counts a cell's incast flows and those among them whose FCT
// reached 10 ms, the minimum RTO: the flows that waited out a timeout.
func rtoFlows(t *testing.T, sc scenario.Scenario) (rto, incast int) {
	t.Helper()
	_, col, err := scenario.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range col.Flows {
		if fr.Class != metrics.ClassIncast {
			continue
		}
		incast++
		if fr.Finished && fr.FCT() >= 10*units.Millisecond {
			rto++
		}
	}
	return rto, incast
}

// TestFig7Cliff pins where ABM's burst absorption ends on the small
// fabric (cubic, load 0.4, fan-in 8): while one incast response fits
// the first-RTT budget of one BDP (request 0.8) ABM times out on no
// incast flow, and once it outgrows it (request 0.9) the untagged tail
// is lost and ABM times out on more incast flows than DT does.
func TestFig7Cliff(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	for seed := int64(1); seed <= 3; seed++ {
		base := preset(t, "small", seed, 0)
		base.Workload.Incast.Fanout = 8
		if rto, n := rtoFlows(t, cell(base, "ABM", 0.4, "cubic", 0.8)); rto != 0 || n == 0 {
			t.Errorf("seed %d, request 0.8: ABM has %d RTO flows of %d incast flows, want 0", seed, rto, n)
		}
		abm, _ := rtoFlows(t, cell(base, "ABM", 0.4, "cubic", 0.9))
		dt, _ := rtoFlows(t, cell(base, "DT", 0.4, "cubic", 0.9))
		if abm <= dt {
			t.Errorf("seed %d, request 0.9: ABM has %d RTO flows, DT %d; want ABM more", seed, abm, dt)
		}
		t.Logf("seed %d, request 0.9: ABM %d RTO flows, DT %d", seed, abm, dt)
	}
}
