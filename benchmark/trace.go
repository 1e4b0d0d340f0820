package main

import (
	"abm/internal/cc"
	"abm/internal/scenario"
)

// layerDef names one per-workload layer metric and its unit (the probes
// name their own). traceWorkload computes every one of them.
type layerDef struct{ name, unit string }

var workloadLayerMetrics = []layerDef{
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.pkt_hops", "count"},
	{"sim.events_per_pkt_hop", "ratio"},
	{"sim.cpu_s", "s"},
	{"sim.clock_ns_per_op", "ns"},
	{"sim.peak_rss_mb", "MB"},
	{"sim.alloc_mb", "MB"},
	{"sim.mallocs", "count"},
	{"sim.gc_count", "count"},
	{"sim.gc_pause_ms", "ms"},
	{"sim.parallel.shard1_overhead_frac", "ratio"},
	{"sim.parallel.shards2_speedup_x", "x"},
	{"sim.parallel.barrier_wait_frac", "ratio"},
	{"sim.parallel.windows", "count"},
	{"sim.parallel.mailbox_events", "count"},
	{"device.admitted_pkts", "count"},
	{"device.drops", "count"},
	{"device.drop_frac", "ratio"},
	{"device.ecn_marked", "count"},
	{"transport.data_pkts", "count"},
	{"transport.retrans_frac", "ratio"},
	{"transport.rto_fired", "count"},
	{"obs.counters_overhead_frac", "ratio"},
	{"obs.hists_overhead_frac", "ratio"},
	{"obs.trace_overhead_frac", "ratio"},
	{"hybrid.event_reduction_x", "x"},
	{"hybrid.speedup_x", "x"},
	{"hybrid.mean_fct_err_pct", "%"},
	{"hybrid.p99_fct_err_pct", "%"},
	{"hybrid.epochs", "count"},
	{"hybrid.demotions", "count"},
	{"runner.jobs_per_s", "1/s"},
	{"runner.store_share_frac", "ratio"},
	{"share.eventq_sim", "ratio"},
	{"share.device", "ratio"},
	{"share.bm", "ratio"},
	{"share.aqm", "ratio"},
	{"share.topo", "ratio"},
	{"share.transport", "ratio"},
	{"share.cc", "ratio"},
	{"share.unattributed", "ratio"},
}

var layerUnits = func() map[string]string {
	m := make(map[string]string, len(workloadLayerMetrics))
	for _, d := range workloadLayerMetrics {
		m[d.name] = d.unit
	}
	return m
}()

// traceWorkload is the traced phase for one workload: it re-runs the
// spec with counters on for exact operation counts, runs the paired
// variants each comparison metric needs, and attributes the untraced
// wall time to layers using the probes' per-operation costs.
//
// r carries the telemetry-off samples (the end-to-end phase's, or one
// taken for this purpose) and the reference run. Every comparison is
// defined as "this workload against the same spec and seed under one
// variant", so on a workload the variant does not change (hybrid off
// already, serial already) it is the identity and costs no run.
func (b *bench) traceWorkload(r *e2eRun, probe map[string]probeResult) (map[string]stat, error) {
	w, untraced, ref := r.w, r.runs, r.ref
	root := b.spans.start(w.name, "benchmark.trace", 0)
	defer b.spans.end(root)
	sc, err := w.spec(b.seed)
	if err != nil {
		return nil, err
	}
	rs, err := sc.Resolve()
	if err != nil {
		return nil, err
	}
	field := func(f func(sample) float64) []float64 {
		vals := make([]float64, len(untraced))
		for i, s := range untraced {
			vals[i] = f(s)
		}
		return vals
	}
	m := make(map[string]stat, len(workloadLayerMetrics))
	set := func(name string, vals ...float64) { m[name] = summarize(layerUnits[name], vals) }

	// Every comparison below divides two runs taken seconds apart, in
	// which the box's clock can differ by a quarter; comparing wall
	// times in clock-kernel operations (see calib.go) takes that out.
	cal := func(s sample) float64 { return s.WallS / s.ClockNs }
	wall := median(field(cal))

	traced := ref // counters on, this workload's own engine
	if rs.Hybrid.Enabled {
		if traced, err = b.sample(w, variant{counters: true}, root); err != nil {
			return nil, err
		}
	}
	c := traced.Counters
	hops := float64(pktHops(ref.Counters))
	events := float64(untraced[0].Events)

	set("sim.events", events)
	set("sim.events_per_s", field(func(s sample) float64 { return float64(s.Events) / s.WallS })...)
	set("sim.pkt_hops", hops)
	set("sim.events_per_pkt_hop", events/hops)
	set("sim.cpu_s", field(func(s sample) float64 { return s.CPUS })...)
	set("sim.clock_ns_per_op", field(func(s sample) float64 { return s.ClockNs })...)
	set("sim.peak_rss_mb", field(func(s sample) float64 { return s.PeakRSSMB })...)
	set("sim.alloc_mb", field(func(s sample) float64 { return s.AllocMB })...)
	set("sim.mallocs", field(func(s sample) float64 { return float64(s.Mallocs) })...)
	set("sim.gc_count", field(func(s sample) float64 { return float64(s.GCCount) })...)
	set("sim.gc_pause_ms", field(func(s sample) float64 { return s.GCPauseMs })...)

	// Exact counts at the layer boundaries, from the counters-on run.
	drops, admits := admissions(c)
	set("device.admitted_pkts", float64(c[ctrAdmitted]))
	set("device.drops", drops)
	set("device.drop_frac", ratio(drops, admits))
	set("device.ecn_marked", float64(c["model/ecn_marked"]))
	set("transport.data_pkts", float64(c[ctrDataSent]))
	set("transport.retrans_frac", ratio(float64(c["model/retrans_pkts_sent"]), float64(c[ctrDataSent])))
	set("transport.rto_fired", float64(c["model/rto_fired"]))

	// Telemetry budget: the same spec at each telemetry level against
	// telemetry off. The full trace is taken on a 20 ms cut of the spec.
	set("obs.counters_overhead_frac", cal(traced)/wall-1)
	hists, err := b.sample(w, variant{hists: true}, root)
	if err != nil {
		return nil, err
	}
	set("obs.hists_overhead_frac", cal(hists)/wall-1)
	cutOff, err := b.sample(w, variant{cut: true}, root)
	if err != nil {
		return nil, err
	}
	cutOn, err := b.sample(w, variant{cut: true, events: true}, root)
	if err != nil {
		return nil, err
	}
	set("obs.trace_overhead_frac", cal(cutOn)/cal(cutOff)-1)

	// Hybrid engine against the packet engine on the same flows; the
	// identity on a workload that does not use it.
	set("hybrid.event_reduction_x", 1)
	set("hybrid.speedup_x", 1)
	set("hybrid.mean_fct_err_pct", 0)
	set("hybrid.p99_fct_err_pct", 0)
	set("hybrid.epochs", 0)
	set("hybrid.demotions", 0)
	if rs.Hybrid.Enabled {
		packet, err := b.sample(w, variant{hybridOff: true}, root)
		if err != nil {
			return nil, err
		}
		mean, p99, err := fctError(untraced[0].FCTps, ref.FCTps)
		if err != nil {
			return nil, err
		}
		set("hybrid.event_reduction_x", float64(packet.Events)/events)
		set("hybrid.speedup_x", cal(packet)/wall)
		set("hybrid.mean_fct_err_pct", mean)
		set("hybrid.p99_fct_err_pct", p99)
		if st := untraced[0].Hybrid; st != nil {
			set("hybrid.epochs", float64(st.Epochs))
			set("hybrid.demotions", float64(st.Demotions))
		}
	}

	// Parallel engine against the serial one; the identity on a serial
	// workload. The two-shard run is informational: on a 2-core shared
	// box it measures contention as much as the engine (see README).
	set("sim.parallel.shard1_overhead_frac", 0)
	set("sim.parallel.shards2_speedup_x", 1)
	set("sim.parallel.barrier_wait_frac", 0)
	set("sim.parallel.windows", 0)
	set("sim.parallel.mailbox_events", 0)
	if rs.Shards >= 1 {
		serial, err := b.sample(w, variant{serial: true}, root)
		if err != nil {
			return nil, err
		}
		two, err := b.sample(w, variant{counters: true, shards2: true}, root)
		if err != nil {
			return nil, err
		}
		set("sim.parallel.shard1_overhead_frac", wall/cal(serial)-1)
		set("sim.parallel.shards2_speedup_x", cal(traced)/cal(two))
		set("sim.parallel.barrier_wait_frac", float64(two.Counters["engine/barrier_wait_ns"])/1e9/two.WallS)
		set("sim.parallel.windows", float64(two.Counters["engine/windows"]))
		set("sim.parallel.mailbox_events", float64(two.Counters["engine/mailbox_events"]))
	}

	// Runner and store: only the grid goes through them.
	set("runner.jobs_per_s", 0)
	set("runner.store_share_frac", 0)
	if w.grid {
		set("runner.jobs_per_s", field(func(s sample) float64 { return float64(s.Ops) / s.WallS })...)
		set("runner.store_share_frac", field(func(s sample) float64 { return s.StorePutS / (s.WallS * gridWorkers) })...)
	}

	// CPU time, not wall: the grid and the sharded engine run on two cores.
	cpu := median(field(func(s sample) float64 { return s.CPUS * 1e9 / s.ClockNs }))
	for name, v := range shares(rs, c, events, cpu, probe) {
		set(name, v)
	}
	return m, nil
}

// admissions returns the packets the switches dropped and the admission
// decisions their MMUs took (every admit and every drop but those at
// dequeue).
func admissions(c map[string]int64) (drops, admits float64) {
	var d int64
	for _, name := range dropCounters {
		d += c[name]
	}
	return float64(d), float64(c[ctrAdmitted] + d - c[ctrDropDeq])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// shares attributes the untraced runs' CPU time to layers: a probe's
// cost per operation times the exact number of such operations in the
// counters-on run, over the CPU time, both in clock-kernel operations
// so that a probe timed in a slow phase of the box and a run timed in a
// fast one still divide. A probe that drives a whole path (switch
// forwarding, packet round trip) is reduced to its self time by
// subtracting the events and the inner-layer calls it makes, so layers
// are not counted twice. Probes run cache-hot, so each share is a lower
// bound and the remainder is reported as unattributed.
func shares(rs scenario.Scenario, c map[string]int64, events, total float64, probe map[string]probeResult) map[string]float64 {
	ns := func(name string) float64 { return probe[name].Median / probe[name].clockNs }
	drops, admits := admissions(c)
	dispatch := ns("sim.dispatch_ns")
	// The one-switch probes keep at most a dozen lanes busy, so their
	// own events cost what the 8-lane dispatch probe measures.
	small := ns("sim.dispatch_ns.lanes8")

	aqmName := "none"
	if usesECN(rs) {
		aqmName = "ecn"
	} else if rs.Switch.Trimming {
		aqmName = "cut-payload"
	}
	fwdName, topoName := "q1-rr", "leafspine"
	switch rs.Switch.Scheduler {
	case "dwrr":
		fwdName = "q4-dwrr"
	case "strict":
		fwdName = "q8-strict"
	}
	if rs.Fabric.Topology == "fattree" {
		topoName = "fattree8"
	}

	// A forwarded packet fires two events in the probe (transmit done,
	// link delivery) and calls the ABM threshold and the null AQM once.
	fwdSelf := func(cfg string) float64 {
		return max(0, ns("device.switch_fwd_ns."+cfg)-2*small-
			ns("bm.threshold_ns.ABM")-ns("aqm.on_arrival_ns.none"))
	}
	// A round trip on the two-host fabric is 8 events (NIC, link, port,
	// link, each way), two switch crossings under DT with no AQM, and
	// one Reno ACK.
	const roundtripEvents = 8
	transportSelf := max(0, ns("transport.pkt_roundtrip_ns")-roundtripEvents*small-
		2*(fwdSelf("q1-rr")+ns("bm.threshold_ns.DT")+ns("aqm.on_arrival_ns.none"))-
		ns("cc.on_ack_ns.reno"))

	out := map[string]float64{
		"share.eventq_sim": dispatch * events / total,
		"share.device": (fwdSelf(fwdName)*float64(c[ctrAdmitted]) +
			max(0, ns("device.admit_drop_ns")-ns("bm.threshold_ns.ABM"))*drops) / total,
		"share.bm":        ns("bm.threshold_ns."+rs.Switch.BM) * admits / total,
		"share.aqm":       ns("aqm.on_arrival_ns."+aqmName) * float64(c[ctrAdmitted]) / total,
		"share.topo":      ns("topo.route_ns."+topoName) * admits / total,
		"share.transport": transportSelf * float64(c[ctrDataSent]) / total,
		"share.cc":        ns("cc.on_ack_ns."+rs.Workload.CC) * float64(c[ctrAckRetire]) / total,
	}
	rest := 1.0
	for _, v := range out {
		rest -= v
	}
	out["share.unattributed"] = rest
	return out
}

// usesECN reports whether the workload's congestion control asks the
// switches for ECN marking (which installs the ECN-threshold AQM).
func usesECN(rs scenario.Scenario) bool {
	mk, err := cc.NewFactory(rs.Workload.CC)
	if err != nil {
		return false
	}
	return mk().UsesECN()
}

// probeMetrics runs every probe once.
func (b *bench) probeMetrics() (map[string]probeResult, error) {
	out := make(map[string]probeResult)
	for _, p := range probes() {
		st, err := b.runProbe(p)
		if err != nil {
			return nil, err
		}
		out[p.metric] = st
	}
	return out, nil
}

// perLayerNames is every per-layer metric name, probes first.
func perLayerNames() []string {
	var names []string
	for _, p := range probes() {
		names = append(names, p.metric)
	}
	for _, d := range workloadLayerMetrics {
		names = append(names, d.name)
	}
	return names
}
