package scenario

import (
	"fmt"

	"abm/internal/bm"
	"abm/internal/cc"
	"abm/internal/obs"
	"abm/internal/units"
)

// Paper defaults: the 8x8x32 Trident2 fabric of §4.1 and the scheme
// parameters of §3. Resolve is the only place they live: the figures,
// the Simulation API and the CLI flags build sparse scenarios and leave
// every unset field to it.
const (
	defaultSpines       = 8
	defaultLeaves       = 8
	defaultHostsPerLeaf = 32
	defaultLinkGbps     = 10
	defaultKBPerGbps    = 9.6 // Trident2
	defaultAlpha        = 0.5
	defaultAlphaUnsched = 64
	defaultCongestedF   = 0.9
	defaultIncastLoad   = 0.04
	defaultFanout       = 8
	abmHeadroomFrac     = 1.0 / 8 // §4.1: ABM "uses headroom similar to IB"
)

var (
	defaultLinkDelay = Duration(10 * units.Microsecond)
	defaultDuration  = Duration(25 * units.Millisecond)
)

// Resolve validates the scenario and returns the fully-explicit spec:
// every defaulted field is filled with its concrete value, so the
// result is a complete record of what a run will do and resolving it
// again is a no-op. The input is not mutated.
func (s Scenario) Resolve() (Scenario, error) {
	r := s.Clone()

	// Fabric: the paper's 8x8x32 leaf–spine at 10G, 10us per link, or a
	// k-ary fat tree when the spec asks for one.
	f := &r.Fabric
	switch f.Topology {
	case "", "leafspine":
		f.Topology = "leafspine"
		if f.K != 0 {
			return Scenario{}, fmt.Errorf("scenario: fabric k is a fat-tree knob; leaf–spine is sized by spines/leaves/hosts_per_leaf")
		}
		if f.Spines <= 0 {
			f.Spines = defaultSpines
		}
		if f.Leaves <= 0 {
			f.Leaves = defaultLeaves
		}
		if f.HostsPerLeaf <= 0 {
			f.HostsPerLeaf = defaultHostsPerLeaf
		}
	case "fattree":
		if f.Spines != 0 || f.Leaves != 0 || f.HostsPerLeaf != 0 {
			return Scenario{}, fmt.Errorf("scenario: fat-tree fabrics are sized by k alone, not spines/leaves/hosts_per_leaf")
		}
		if f.K == 0 {
			f.K = 4
		}
		if f.K < 2 || f.K%2 != 0 {
			return Scenario{}, fmt.Errorf("scenario: fat-tree k %d must be even and >= 2", f.K)
		}
	default:
		return Scenario{}, fmt.Errorf("scenario: unknown topology %q (known: leafspine, fattree)", f.Topology)
	}
	if f.LinkGbps <= 0 {
		f.LinkGbps = defaultLinkGbps
	}
	if f.UplinkGbps <= 0 {
		f.UplinkGbps = f.LinkGbps
	}
	if f.LinkDelay <= 0 {
		f.LinkDelay = defaultLinkDelay
	}
	if err := f.checkSize(); err != nil {
		return Scenario{}, err
	}
	g := f.graph()
	for i, lf := range f.LinkFaults {
		if _, err := g.LinkIndex(lf.Link); err != nil {
			return Scenario{}, fmt.Errorf("scenario: link fault %d: %w", i, err)
		}
		if lf.At <= 0 {
			return Scenario{}, fmt.Errorf("scenario: link fault %d (%s): at must be positive", i, lf.Link)
		}
		if lf.Flaps < 0 || lf.DegradeGbps < 0 {
			return Scenario{}, fmt.Errorf("scenario: link fault %d (%s): negative flaps or degrade_gbps", i, lf.Link)
		}
		if lf.Flaps > 0 {
			if lf.Period <= 0 {
				return Scenario{}, fmt.Errorf("scenario: link fault %d (%s): flaps need a positive period", i, lf.Link)
			}
			if lf.RecoverAt != 0 || lf.DegradeGbps != 0 {
				return Scenario{}, fmt.Errorf("scenario: link fault %d (%s): flaps exclude recover_at and degrade_gbps", i, lf.Link)
			}
		} else if lf.Period != 0 {
			return Scenario{}, fmt.Errorf("scenario: link fault %d (%s): period needs flaps", i, lf.Link)
		}
		if lf.RecoverAt != 0 && lf.RecoverAt <= lf.At {
			return Scenario{}, fmt.Errorf("scenario: link fault %d (%s): recover_at %v not after at %v", i, lf.Link, lf.RecoverAt.Time(), lf.At.Time())
		}
	}
	if len(f.LinkFaults) > 0 {
		// A permanently disconnected group black-holes its senders, whose
		// RTO chains then never die out — reject schedules whose final
		// link state partitions the fabric (flaps and degradations end in
		// service; only an unrecovered hard failure stays down).
		final := make([]bool, len(g.Links))
		for i := range final {
			final[i] = true
		}
		for _, lf := range f.LinkFaults {
			if lf.Flaps == 0 && lf.DegradeGbps == 0 && lf.RecoverAt == 0 {
				li, _ := g.LinkIndex(lf.Link)
				final[li] = false
			}
		}
		if !g.Reachable(final) {
			return Scenario{}, fmt.Errorf("scenario: link faults leave the fabric permanently partitioned; recover at least one path per edge group")
		}
	}
	if r.Duration <= 0 {
		r.Duration = defaultDuration
	}
	if r.Shards < 0 {
		r.Shards = 0
	}

	// Buffer model.
	b := &r.Buffer
	if b.KBPerPortPerGbps <= 0 {
		b.KBPerPortPerGbps = defaultKBPerGbps
	}
	if b.QueuesPerPort <= 0 {
		b.QueuesPerPort = 1
	}
	if b.QueuesPerPort > maxQueuesPerPort {
		return Scenario{}, fmt.Errorf("scenario: queues_per_port %d exceeds %d priorities", b.QueuesPerPort, maxQueuesPerPort)
	}
	b.Alphas = expandAlphas(b.Alphas, b.QueuesPerPort)
	if b.AlphaUnscheduled <= 0 {
		b.AlphaUnscheduled = defaultAlphaUnsched
	}

	// Switch policies.
	sw := &r.Switch
	if sw.BM == "" {
		sw.BM = "DT"
	}
	if sw.CongestedFactor <= 0 {
		sw.CongestedFactor = defaultCongestedF
	}
	if sw.StatsInterval <= 0 {
		// One healthy-fabric base RTT: 8 link delays on the two-tier
		// leaf–spine, 12 on a fat tree.
		sw.StatsInterval = 2 * Duration(g.WorstHops()) * f.LinkDelay
	}
	switch sw.Scheduler {
	case "":
		sw.Scheduler = "rr"
	case "rr", "dwrr", "strict":
	default:
		return Scenario{}, fmt.Errorf("scenario: unknown scheduler %q (known: rr, dwrr, strict)", sw.Scheduler)
	}
	numQueues := b.QueuesPerPort * f.radix()
	if err := bm.Validate(sw.BM, numQueues, sw.UpdateInterval.Time()); err != nil {
		return Scenario{}, err
	}

	// Headroom: scheme default unless the spec pins a fraction.
	if b.HeadroomFrac == nil {
		frac := 0.0
		if sw.BM == "ABM" || sw.BM == "IB" || sw.BM == "ABM-approx" {
			frac = abmHeadroomFrac
		}
		b.HeadroomFrac = &frac
	}
	if *b.HeadroomFrac < 0 {
		*b.HeadroomFrac = 0
	}
	if *b.HeadroomFrac > 1 {
		return Scenario{}, fmt.Errorf("scenario: headroom_frac %g exceeds the whole buffer", *b.HeadroomFrac)
	}

	// Workload mix.
	w := &r.Workload
	if w.Load < 0 || w.Load > 1 {
		return Scenario{}, fmt.Errorf("scenario: workload load %g outside [0, 1]", w.Load)
	}
	switch w.Background {
	case "":
		w.Background = "websearch"
	case "websearch", "datamining":
	default:
		return Scenario{}, fmt.Errorf("scenario: unknown background workload %q (known: websearch, datamining)", w.Background)
	}
	if w.CC == "" {
		w.CC = "cubic"
	}
	ic := &w.Incast
	if ic.RequestFrac < 0 {
		ic.RequestFrac = 0
	}
	if ic.Fanout <= 0 {
		ic.Fanout = defaultFanout
	}
	if ic.Load <= 0 {
		ic.Load = defaultIncastLoad
	}
	if ic.CC == "" {
		ic.CC = w.CC
	}
	// CC names are checked where a factory will actually be built:
	// background names when Load > 0, incast when RequestFrac > 0.
	if w.Load > 0 {
		if len(w.MixedCC) > 0 {
			for _, a := range w.MixedCC {
				if err := validCC(a.CC); err != nil {
					return Scenario{}, err
				}
			}
		} else if err := validCC(w.CC); err != nil {
			return Scenario{}, err
		}
	}
	if ic.RequestFrac > 0 {
		if err := validCC(ic.CC); err != nil {
			return Scenario{}, err
		}
	}
	lf := &w.LongFlows
	if lf.FlowKB < 0 {
		lf.FlowKB = 0
	}
	if lf.FlowKB > 0 {
		if lf.CC == "" {
			lf.CC = w.CC
		}
		if err := validCC(lf.CC); err != nil {
			return Scenario{}, err
		}
		if lf.Stride <= 0 {
			lf.Stride = g.HostsPerEdge
		}
		if n := g.NumHosts(); lf.Stride%n == 0 {
			return Scenario{}, fmt.Errorf("scenario: long-flow stride %d maps every host onto itself on %d hosts", lf.Stride, n)
		}
		if lf.Stagger <= 0 {
			lf.Stagger = Duration(units.Microsecond)
		}
		n := g.NumHosts()
		if lf.Count < 0 || lf.Count > n {
			return Scenario{}, fmt.Errorf("scenario: long-flow count %d outside [0, %d hosts]", lf.Count, n)
		}
	}

	// Hybrid engine: defaults only when enabled, so a disabled block
	// stays all-zero and is omitted from resolved specs.
	hy := &r.Hybrid
	if hy.Enabled {
		if r.Shards >= 1 {
			return Scenario{}, fmt.Errorf("scenario: the hybrid fluid/packet engine requires shards 0 (the serial tie order: one shard, direct tier links), got shards %d", r.Shards)
		}
		if hy.GuardBandFrac > 1 {
			return Scenario{}, fmt.Errorf("scenario: hybrid guard_band_frac %g exceeds 1", hy.GuardBandFrac)
		}
		if hy.GuardBandFrac <= 0 {
			hy.GuardBandFrac = 0.5
		}
		if hy.SteadyRTTs <= 0 {
			hy.SteadyRTTs = 8
		}
		if hy.EpochDt <= 0 {
			hy.EpochDt = 2 * Duration(g.WorstHops()) * f.LinkDelay // one base RTT
		}
	}

	if sw.Trimming && r.usesECN() {
		return Scenario{}, fmt.Errorf("scenario: trimming and ECN-based CC (dctcp/dcqcn) AQMs are mutually exclusive")
	}
	sw.EnableINT = sw.EnableINT || r.needsINT()

	// Telemetry options share the CLI flag surface's validation.
	if _, err := obs.ParseMask(r.Obs.Filter); err != nil {
		return Scenario{}, err
	}
	if r.Obs.Sample < 0 || r.Obs.Sample > 1 {
		return Scenario{}, fmt.Errorf("scenario: obs sample %g outside [0, 1]", r.Obs.Sample)
	}
	return r, nil
}

// MustResolve is Resolve for specs that are known-valid (committed
// files covered by tests); it panics on error.
func (s Scenario) MustResolve() Scenario {
	r, err := s.Resolve()
	if err != nil {
		panic(err)
	}
	return r
}

// expandAlphas produces the explicit per-queue alpha vector: a single
// entry replicates across every queue (the "one alpha" knob of the
// alphasweep figure), missing or non-positive entries take the paper's
// 0.5.
func expandAlphas(in []float64, queues int) []float64 {
	out := make([]float64, queues)
	for i := range out {
		switch {
		case len(in) == 1 && in[0] > 0:
			out[i] = in[0]
		case i < len(in) && in[i] > 0:
			out[i] = in[i]
		default:
			out[i] = defaultAlpha
		}
	}
	return out
}

func validCC(name string) error {
	if _, err := cc.NewFactory(name); err != nil {
		return err
	}
	return nil
}

// ccNames lists every algorithm the scenario configures, enabled or
// not: INT and AQM needs derive from all of them.
func (s Scenario) ccNames() []string {
	names := []string{s.Workload.CC, s.Workload.Incast.CC}
	if s.Workload.LongFlows.CC != "" {
		names = append(names, s.Workload.LongFlows.CC)
	}
	for _, a := range s.Workload.MixedCC {
		names = append(names, a.CC)
	}
	return names
}

// needsINT reports whether any configured algorithm requires in-band
// telemetry.
func (s Scenario) needsINT() bool {
	for _, n := range s.ccNames() {
		if n == "powertcp" || n == "hpcc" {
			return true
		}
	}
	return false
}

// usesECN reports whether any configured algorithm needs the ECN
// threshold AQM (DCTCP's K = 65 packets, §4.1).
func (s Scenario) usesECN() bool {
	for _, n := range s.ccNames() {
		if n == "dctcp" || n == "dcqcn" {
			return true
		}
	}
	return false
}
