package scenario

import (
	"math"
	"math/rand"

	"abm/internal/aqm"
	"abm/internal/bm"
	"abm/internal/cc"
	"abm/internal/device"
	"abm/internal/hybrid"
	"abm/internal/metrics"
	"abm/internal/obs"
	"abm/internal/obs/hist"
	"abm/internal/packet"
	"abm/internal/randutil"
	"abm/internal/sim"
	"abm/internal/topo"
	"abm/internal/units"
	"abm/internal/workload"
)

// Result is one finished run.
type Result struct {
	// Scenario is the fully-resolved spec the run executed — embedding it
	// (e.g. in runner job records) makes the result re-runnable as-is.
	Scenario Scenario
	Summary  metrics.Summary
	// PerPrioP99Short holds the per-priority p99 short-flow slowdown for
	// mixed-protocol scenarios (fig8).
	PerPrioP99Short map[uint8]float64

	Drops            int64
	UnscheduledDrops int64
	Events           uint64

	// Counters holds the telemetry counter totals by export name when the
	// scenario enabled telemetry; nil otherwise. The keys and values are
	// shard-count-invariant.
	Counters map[string]int64

	// Hists holds the merged histogram snapshots by export name when the
	// scenario enabled histogram recording (obs.Options.Hists); nil
	// otherwise. Like Counters, shard-count-invariant.
	Hists map[string]hist.Snapshot

	// Hybrid holds the hybrid engine's activity summary when the
	// scenario enabled it; nil otherwise.
	Hybrid *hybrid.Stats
}

// samplerInterval is the period of the run's one periodic tick (see
// sample) in both run modes.
const samplerInterval = 100 * units.Microsecond

// sample is the run's periodic tick: the fabric's worst-switch buffer
// occupancy, then the histogram recorder's tick. It reads every switch,
// so the sharded engine runs it at window barriers, where the whole
// fabric is quiescent at the same cut a serial ticker observes.
func sample(n *topo.Network, col *metrics.Collector, rec *histRecorder, now units.Time) {
	col.SampleBuffer(n.WorstBufferFrac())
	rec.tick(now)
}

// rateOf converts a Gbps knob to the simulator's integer bits/s rate.
func rateOf(gbps float64) units.Rate {
	return units.Rate(math.Round(gbps * float64(units.GigabitPerSec)))
}

// topoConfig compiles a resolved scenario into the fabric config and the
// chip buffer size. Incast requests and trim thresholds are sized
// against the chip buffer, not the scheme-dependent shared pool, so
// every scheme sees the same load.
func (s Scenario) topoConfig() (topo.Config, units.ByteCount) {
	f := s.Fabric
	rate := rateOf(f.LinkGbps)
	ports := f.radix()
	totalBuffer := topo.BufferFor(s.Buffer.KBPerPortPerGbps, ports, rate)

	headroom := units.ByteCount(float64(totalBuffer) * *s.Buffer.HeadroomFrac)
	shared := totalBuffer - headroom

	numQueues := s.Buffer.QueuesPerPort * ports
	bmName, bmInterval := s.Switch.BM, s.Switch.UpdateInterval.Time()
	drainMode := device.DrainRateShare
	if s.Switch.DrainRateMeasured {
		drainMode = device.DrainRateMeasured
	}
	cfg := topo.Config{
		Topo:          f.graph(),
		NumSpines:     f.Spines,
		NumLeaves:     f.Leaves,
		HostsPerLeaf:  f.HostsPerLeaf,
		LinkRate:      rate,
		LinkDelay:     f.LinkDelay.Time(),
		QueuesPerPort: s.Buffer.QueuesPerPort,
		BufferSize:    shared,
		Headroom:      headroom,
		// Resolve already validated the name; MustNew only re-checks the
		// invariant per switch.
		BMFactory: func() bm.Policy {
			return bm.MustNew(bmName, numQueues, bmInterval)
		},
		Alphas:           s.Buffer.Alphas,
		AlphaUnscheduled: s.Buffer.AlphaUnscheduled,
		CongestedFactor:  s.Switch.CongestedFactor,
		StatsInterval:    s.Switch.StatsInterval.Time(),
		DrainRate:        drainMode,
		EnableINT:        s.Switch.EnableINT,
	}
	if up := rateOf(f.UplinkGbps); up != rate {
		cfg.UplinkRate = up
	}
	switch s.Switch.Scheduler {
	case "rr":
		// round robin, the device default
	case "dwrr":
		cfg.NewScheduler = func() device.Scheduler { return &device.DWRR{} }
	case "strict":
		cfg.NewScheduler = func() device.Scheduler { return device.StrictPriority{} }
	}
	// DCTCP needs its marking threshold K = 65 packets (§4.1); the
	// threshold only marks ECT packets, so it is safe fabric-wide.
	if s.usesECN() {
		k := 65 * (1440 + packet.HeaderBytes)
		cfg.AQMFactory = func() aqm.Policy { return aqm.ECNThreshold{K: k} }
	} else if s.Switch.Trimming {
		// Trim once a queue holds an eighth of the chip — roughly where
		// deep per-queue backlogs turn into timeout-inducing tail drops.
		trimAt := totalBuffer / 8
		cfg.AQMFactory = func() aqm.Policy { return aqm.CutPayload{TrimAbove: trimAt} }
	}
	return cfg, totalBuffer
}

// BuildFabric resolves the scenario and constructs the serial engine and
// fabric without any workloads attached — the programmatic Simulation
// API drives traffic itself.
func BuildFabric(s Scenario) (Scenario, *sim.Simulator, *topo.Network, units.ByteCount, error) {
	r, err := s.Resolve()
	if err != nil {
		return Scenario{}, nil, nil, 0, err
	}
	cfg, totalBuffer := r.topoConfig()
	eng := sim.New(r.Seed)
	n := topo.NewNetwork(eng, cfg)
	return r, eng, n, totalBuffer, nil
}

// Run resolves and executes one scenario, returning its result and the
// metrics collector with every flow record for tracing and custom
// analysis. Shards selects the engine; output is identical at every
// shard count.
func Run(s Scenario) (Result, *metrics.Collector, error) {
	r, err := s.Resolve()
	if err != nil {
		return Result{}, nil, err
	}
	cfg, totalBuffer := r.topoConfig()
	duration := r.Duration.Time()
	rate := cfg.LinkRate

	if r.Shards >= 1 {
		return runSharded(r, cfg, totalBuffer, duration, rate)
	}

	sess, err := obs.NewSession(r.Obs, 1)
	if err != nil {
		return Result{}, nil, err
	}
	cfg.Obs = sess

	eng := sim.New(r.Seed)
	sess.ShardSink(0).AddSource(eng)
	n := topo.NewNetwork(eng, cfg)
	col := &metrics.Collector{}

	// Fault events are scheduled before anything else so that among ties
	// at one instant they apply first — the serial equivalent of the
	// sharded engine's window-barrier cut.
	for _, ev := range expandFaults(n.G, r.Fabric.LinkFaults) {
		ev := ev
		eng.At(ev.At, func() { n.ApplyLinkEvent(ev) })
	}

	traffic, err := buildWorkloads(n, r, col, totalBuffer, duration)
	if err != nil {
		return Result{}, nil, err
	}
	rec, err := newHistRecorder(r, sess, col, n)
	if err != nil {
		return Result{}, nil, err
	}
	// The hybrid controller installs the flow-start hook and its epoch
	// ticker before any flow launches.
	var ctl *hybrid.Controller
	if r.Hybrid.Enabled {
		ctl = hybrid.New(eng, n, hybrid.Config{
			GuardBandFrac: r.Hybrid.GuardBandFrac,
			SteadyRTTs:    r.Hybrid.SteadyRTTs,
			EpochDt:       r.Hybrid.EpochDt.Time(),
			Obs:           sess.ShardSink(0),
		})
		ctl.Start()
	}
	traffic.Schedule()
	ticker := eng.NewTicker(samplerInterval, func() { sample(n, col, rec, eng.Now()) })

	eng.RunUntil(duration)
	// Drain: let in-flight flows finish (bounded so pathological runs
	// still terminate).
	drainEnd := duration + 500*units.Millisecond
	eng.RunUntil(drainEnd)
	ticker.Stop()
	if ctl != nil {
		// Promote every remaining fluid flow so the final flush below
		// completes flows in packet mode, like a pure-packet run.
		ctl.Stop()
	}
	n.Stop()
	eng.Run() // flush canceled tickers
	rec.finish(drainEnd)

	res := collectResult(r, n, col, rate, eng.Executed())
	res.Counters = sess.Totals()
	res.Hists = sess.HistTotals()
	if ctl != nil {
		st := ctl.Stats()
		res.Hybrid = &st
	}
	if err := writeObsOutputs(r.Obs, sess, n, rec); err != nil {
		return Result{}, nil, err
	}
	return res, col, nil
}

// runSharded executes a scenario on the parallel engine: the fabric is
// partitioned across shards, the workload stream is planned to the
// traffic horizon up front (see workload.Stream.Schedule), and the
// periodic sample runs at window barriers.
func runSharded(r Scenario, cfg topo.Config, totalBuffer units.ByteCount,
	duration units.Time, rate units.Rate) (Result, *metrics.Collector, error) {

	part := topo.MakePartition(cfg.Graph(), r.Shards)
	sess, err := obs.NewSession(r.Obs, part.Shards)
	if err != nil {
		return Result{}, nil, err
	}
	cfg.Obs = sess

	p := sim.NewParallel(r.Seed, part.Shards)
	defer p.Close()
	p.SetObs(sess)
	n := topo.NewShardedNetwork(p, cfg, part)
	col := &metrics.Collector{}

	// Window barriers are the only point where cross-shard routing state
	// may change; every fault lands exactly on one.
	for _, ev := range expandFaults(n.G, r.Fabric.LinkFaults) {
		ev := ev
		p.AtBarrier(ev.At, func(units.Time) { n.ApplyLinkEvent(ev) })
	}

	traffic, err := buildWorkloads(n, r, col, totalBuffer, duration)
	if err != nil {
		return Result{}, nil, err
	}
	rec, err := newHistRecorder(r, sess, col, n)
	if err != nil {
		return Result{}, nil, err
	}
	traffic.Schedule()
	ticker := p.NewBarrierTicker(samplerInterval, func(now units.Time) { sample(n, col, rec, now) })

	p.RunUntil(duration)
	drainEnd := duration + 500*units.Millisecond
	p.RunUntil(drainEnd)
	ticker.Stop()
	n.Stop()
	p.Drain() // run remaining retransmission chains to exhaustion
	rec.finish(drainEnd)

	res := collectResult(r, n, col, rate, p.Executed())
	res.Counters = sess.Totals()
	res.Hists = sess.HistTotals()
	if err := writeObsOutputs(r.Obs, sess, n, rec); err != nil {
		return Result{}, nil, err
	}
	return res, col, nil
}

// expandFaults compiles the spec's named fault list into a canonically
// sorted link-event schedule against the built fabric graph. Resolve
// already validated names and times, so lookups cannot fail here.
func expandFaults(g *topo.Graph, faults []LinkFault) []topo.LinkEvent {
	var evs []topo.LinkEvent
	for _, lf := range faults {
		li, err := g.LinkIndex(lf.Link)
		if err != nil {
			panic(err)
		}
		switch {
		case lf.Flaps > 0:
			for i := 0; i < lf.Flaps; i++ {
				down := lf.At + Duration(i)*lf.Period
				evs = append(evs,
					topo.LinkEvent{At: down.Time(), Link: li, State: topo.LinkDown},
					topo.LinkEvent{At: (down + lf.Period/2).Time(), Link: li, State: topo.LinkUp})
			}
		case lf.DegradeGbps > 0:
			evs = append(evs, topo.LinkEvent{
				At: lf.At.Time(), Link: li, State: topo.LinkDegraded, Rate: rateOf(lf.DegradeGbps)})
			if lf.RecoverAt > 0 {
				evs = append(evs, topo.LinkEvent{At: lf.RecoverAt.Time(), Link: li, State: topo.LinkUp})
			}
		default:
			evs = append(evs, topo.LinkEvent{At: lf.At.Time(), Link: li, State: topo.LinkDown})
			if lf.RecoverAt > 0 {
				evs = append(evs, topo.LinkEvent{At: lf.RecoverAt.Time(), Link: li, State: topo.LinkUp})
			}
		}
	}
	topo.SortLinkEvents(evs)
	return evs
}

// buildWorkloads builds the scenario's workload stream without
// scheduling anything; both engines then call its Schedule. A workload
// Resolve accepts but the fabric cannot realize (say, an incast request
// that rounds to zero bytes) is an error here.
func buildWorkloads(n *topo.Network, r Scenario, col *metrics.Collector,
	chip units.ByteCount, horizon units.Time) (*workload.Stream, error) {

	// Workload randomness is isolated from simulation randomness so every
	// scheme at the same seed sees identical arrivals.
	rng := rand.New(rand.NewSource(r.Seed + 1000))
	qpp := r.Buffer.QueuesPerPort
	w := r.Workload

	var ws *workload.WebSearch
	if w.Load > 0 {
		ws = &workload.WebSearch{Load: w.Load, Seed: r.Seed + 1}
		if w.Background == "datamining" {
			ws.Sizes = randutil.DataMining
		}
		switch {
		case len(w.MixedCC) > 0:
			factories := make([]cc.Factory, len(w.MixedCC))
			for i, a := range w.MixedCC {
				f, err := cc.NewFactory(a.CC)
				if err != nil {
					return nil, err
				}
				factories[i] = f
			}
			assignments := w.MixedCC
			ws.PickCC = func(i int) (cc.Factory, uint8) {
				j := i % len(assignments)
				return factories[j], assignments[j].Prio
			}
		case w.RandomPrio:
			f, err := cc.NewFactory(w.CC)
			if err != nil {
				return nil, err
			}
			ws.PickCC = func(int) (cc.Factory, uint8) {
				return f, uint8(rng.Intn(qpp))
			}
		default:
			f, err := cc.NewFactory(w.CC)
			if err != nil {
				return nil, err
			}
			ws.CC = f
			ws.Prio = w.Prio
		}
	}

	var ic *workload.Incast
	if w.Incast.RequestFrac > 0 {
		f, err := cc.NewFactory(w.Incast.CC)
		if err != nil {
			return nil, err
		}
		reqSize := units.ByteCount(w.Incast.RequestFrac * float64(chip))
		bisection := float64(n.BisectionBits())
		qps := w.Incast.Load * bisection / float64(reqSize.Bits())
		ic = &workload.Incast{
			RequestSize: reqSize,
			Fanout:      w.Incast.Fanout,
			QueryRate:   qps,
			Prio:        w.Incast.Prio,
			CC:          f,
			Seed:        r.Seed + 2,
		}
		if w.RandomPrio {
			ic.PickPrio = func() uint8 { return uint8(rng.Intn(qpp)) }
		}
	}

	var lf *workload.LongFlows
	if w.LongFlows.FlowKB > 0 {
		f, err := cc.NewFactory(w.LongFlows.CC)
		if err != nil {
			return nil, err
		}
		lf = &workload.LongFlows{
			Size:    units.ByteCount(w.LongFlows.FlowKB * float64(units.Kilobyte)),
			Stride:  w.LongFlows.Stride,
			Count:   w.LongFlows.Count,
			Stagger: w.LongFlows.Stagger.Time(),
			Prio:    w.LongFlows.Prio,
			CC:      f,
		}
	}

	return workload.NewStream(n, col, horizon, lf, ws, ic)
}

// collectResult assembles the result from a finished network.
func collectResult(r Scenario, n *topo.Network, col *metrics.Collector,
	rate units.Rate, events uint64) Result {

	var t obs.Tally
	for _, sw := range n.Switches() {
		sw.AddCounts(&t)
	}
	res := Result{
		Scenario:         r,
		Summary:          col.Summarize(rate),
		Drops:            n.TotalDrops(),
		UnscheduledDrops: t[obs.CtrDropUnscheduled],
		Events:           events,
	}
	w := r.Workload
	if len(w.MixedCC) > 0 {
		res.PerPrioP99Short = make(map[uint8]float64)
		for _, a := range w.MixedCC {
			vals := col.Filter(func(fr metrics.FlowRecord) bool {
				return fr.Prio == a.Prio && fr.Size <= metrics.ShortFlowCut
			})
			res.PerPrioP99Short[a.Prio] = metrics.Percentile(vals, 99)
		}
		if w.Incast.RequestFrac > 0 {
			vals := col.Filter(metrics.ByClass(metrics.ClassIncast))
			res.PerPrioP99Short[w.Incast.Prio] = metrics.Percentile(vals, 99)
		}
	}
	return res
}
