package abm

import (
	"bytes"
	"strings"
	"testing"

	"abm/internal/scenario"
)

// fabric is a leaf–spine scenario of the given shape and scheme.
func fabric(seed int64, spines, leaves, hostsPerLeaf int, bmName string) Scenario {
	return Scenario{
		Seed:   seed,
		Fabric: scenario.Fabric{Spines: spines, Leaves: leaves, HostsPerLeaf: hostsPerLeaf},
		Switch: scenario.Switch{BM: bmName},
	}
}

func TestRegistriesExposed(t *testing.T) {
	if len(BMSchemes()) < 6 {
		t.Fatalf("BM schemes: %v", BMSchemes())
	}
	if len(CCAlgorithms()) < 6 {
		t.Fatalf("CC algorithms: %v", CCAlgorithms())
	}
}

func TestAnalyticFacade(t *testing.T) {
	b := ByteCount(1000)
	if got := ABMMaxAllocation(b, 1); got != 500 {
		t.Fatalf("Theorem 2 facade = %v", got)
	}
	if got := ABMMinGuarantee(b, 1, 2); got != 333 {
		t.Fatalf("Theorem 1 facade = %v", got)
	}
	if ABMDrainTimeBound(1_250_000, 1, 10*GigabitPerSec) != 500*Microsecond {
		t.Fatal("Theorem 3 facade broken")
	}
	thr := DTSteadyThreshold(1000, 1, []PriorityLoad{{Alpha: 1, Congested: 1}})
	if thr != 500 {
		t.Fatalf("Eq. 6 facade = %v", thr)
	}
	s := BurstScenario{
		B: 5 * Megabyte, PortRate: 10 * GigabitPerSec,
		Alpha: 0.5, AlphaBurst: 64,
		CongestedPorts: 8, QueuesPerPort: 2,
		BurstRate: 150 * GigabitPerSec,
	}
	if s.ABMBurstTolerance() <= s.DTBurstTolerance() {
		t.Fatal("burst tolerance facade: ABM must beat DT under load")
	}
}

func TestSimulationLifecycle(t *testing.T) {
	simn, err := NewSimulationFromScenario(fabric(1, 2, 2, 4, "ABM"))
	if err != nil {
		t.Fatal(err)
	}
	if simn.NumHosts() != 8 {
		t.Fatalf("hosts = %d", simn.NumHosts())
	}
	if simn.BaseRTT() != 80*Microsecond {
		t.Fatalf("base RTT = %v", simn.BaseRTT())
	}
	var fct Time
	if err := simn.StartFlow(0, 5, 50*Kilobyte, 0, "dctcp", func(d Time) { fct = d }); err != nil {
		t.Fatal(err)
	}
	simn.Run(100 * Millisecond)
	simn.Drain()
	if fct == 0 {
		t.Fatal("flow did not complete")
	}
	flows := simn.Flows()
	if len(flows) != 1 || !flows[0].Finished {
		t.Fatalf("flows = %+v", flows)
	}
	if flows[0].Slowdown() < 1 {
		t.Fatalf("slowdown = %v", flows[0].Slowdown())
	}
}

func TestSimulationRejectsBadNames(t *testing.T) {
	if _, err := NewSimulationFromScenario(fabric(0, 1, 1, 2, "bogus")); err == nil {
		t.Fatal("expected BM error")
	}
	simn, err := NewSimulationFromScenario(fabric(0, 1, 2, 2, ""))
	if err != nil {
		t.Fatal(err)
	}
	if err := simn.StartFlow(0, 1, 1000, 0, "bogus", nil); err == nil {
		t.Fatal("expected cc error")
	}
}

func TestPercentileFacade(t *testing.T) {
	if Percentile([]float64{1, 2, 3}, 50) != 2 {
		t.Fatal("percentile facade broken")
	}
}

// TestRunScenarioDetailedAndTrace runs a scenario through the facade
// and dumps its flow records with the trace writer.
func TestRunScenarioDetailedAndTrace(t *testing.T) {
	sc := fabric(7, 2, 2, 8, "DT")
	sc.Duration = scenario.Duration(5 * Millisecond)
	sc.Workload.Load = 0.2
	sc.Workload.CC = "reno"
	res, col, err := RunScenarioDetailed(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Flows != len(col.Flows) {
		t.Fatalf("summary flows %d != collector %d", res.Summary.Flows, len(col.Flows))
	}
	var buf bytes.Buffer
	if err := WriteFlowTrace(&buf, col.Flows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "websearch") {
		t.Fatal("trace missing flow rows")
	}
}
