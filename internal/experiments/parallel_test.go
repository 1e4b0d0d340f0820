package experiments

import (
	"reflect"
	"testing"

	"abm/internal/scenario"
	"abm/internal/units"
)

// namedCell is one shard-invariance cell and its subtest name.
type namedCell struct {
	name string
	sc   scenario.Scenario
}

// shortCells is a Fig6-class slice of the figure grid, cut to a short
// duration so the shard sweep stays CI-sized. IB exercises the
// per-switch RNG stream, RandomPrio the shared workload RNG, MixedCC
// the per-flow CC assignment path.
func shortCells(t *testing.T) []namedCell {
	base := preset(t, "small", 42, 8*units.Millisecond)
	rp := cell(base, "ABM", 0.6, "dctcp", 0.5)
	rp.Buffer.QueuesPerPort = 2
	rp.Workload.RandomPrio = true
	mixed := cell(base, "ABM", 0.6, "", 0)
	mixed.Buffer.QueuesPerPort = 2
	mixed.Workload.MixedCC = []scenario.CCAssignment{{CC: "dctcp", Prio: 0}, {CC: "timely", Prio: 1}}
	// Fat tree k=4: 16 hosts over 3 tiers and 8 edge groups, so every
	// shard count in the sweep is a genuine split of a multi-tier graph.
	ft := cell(preset(t, "small", 42, 3*units.Millisecond), "ABM", 0.6, "dctcp", 0.5)
	ft.Fabric = scenario.Fabric{Topology: "fattree", K: 4}
	// Mid-run uplink failure + recovery: the barrier-scheduled routing
	// recompute must be shard-count-invariant too.
	fail := cell(base, "ABM", 0.6, "dctcp", 0.5)
	fail.Fabric.LinkFaults = []scenario.LinkFault{
		{Link: "leaf0-spine1", At: scenario.Duration(2 * units.Millisecond),
			RecoverAt: scenario.Duration(5 * units.Millisecond)},
	}
	return []namedCell{
		{"DT", cell(base, "DT", 0.6, "dctcp", 0.5)},
		{"IB", cell(base, "IB", 0.6, "dctcp", 0.5)},
		{"ABM", cell(base, "ABM", 0.6, "dctcp", 0.5)},
		{"ABM-randprio", rp},
		{"ABM-mixed", mixed},
		// Medium scale has 4 leaves, so shards=4 is a genuine 4-way split
		// (small clamps at its 2 leaves).
		{"ABM-medium", cell(preset(t, "medium", 42, 3*units.Millisecond), "ABM", 0.6, "dctcp", 0.5)},
		{"ABM-fattree", ft},
		{"ABM-linkfail", fail},
	}
}

// TestShardCountInvariance is the cross-shard determinism golden test:
// each cell must produce an identical result — every flow record,
// every buffer sample, every drop counter — at 1, 2, 4, and 8 shards.
// (8 shards clamps to the 2 leaves of the small scale; it exercises the
// clamping path.)
func TestShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shard sweep")
	}
	for _, nc := range shortCells(t) {
		t.Run(nc.name, func(t *testing.T) {
			var refRes scenario.Result
			var refFlows, refSamples any
			for _, shards := range []int{1, 2, 4, 8} {
				sc := nc.sc.Clone()
				sc.Shards = shards
				res, col, err := scenario.Run(sc)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				// The resolved scenarios differ by construction (Shards);
				// the invariance claim is about the outputs.
				res.Scenario = scenario.Scenario{}
				if shards == 1 {
					refRes, refFlows, refSamples = res, col.Flows, col.BufferSamples
					if res.Summary.Flows < 25 {
						t.Fatalf("only %d flows; cell too small to be meaningful", res.Summary.Flows)
					}
					continue
				}
				if !reflect.DeepEqual(res, refRes) {
					t.Errorf("shards=%d result diverged:\n%+v\nwant\n%+v", shards, res, refRes)
				}
				if !reflect.DeepEqual(col.Flows, refFlows) {
					t.Errorf("shards=%d flow records diverged", shards)
				}
				if !reflect.DeepEqual(col.BufferSamples, refSamples) {
					t.Errorf("shards=%d buffer samples diverged", shards)
				}
			}
		})
	}
}
