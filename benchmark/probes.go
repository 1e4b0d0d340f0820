package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"abm/internal/aqm"
	"abm/internal/bm"
	"abm/internal/cc"
	"abm/internal/device"
	"abm/internal/eventq"
	"abm/internal/host"
	"abm/internal/metrics"
	"abm/internal/obs"
	"abm/internal/obs/hist"
	"abm/internal/packet"
	"abm/internal/runner"
	"abm/internal/scenario"
	"abm/internal/sim"
	"abm/internal/sweepd"
	"abm/internal/topo"
	"abm/internal/units"
)

// A probe times one layer's public functions in isolation. It exists to
// say which layer got cheaper when an end-to-end number moves, not to
// be optimised for its own sake: probes run cache-hot on tiny working
// sets, so op cost x op count is a lower bound on the layer's share.
type probe struct {
	metric string // per-layer metric name
	unit   string // ns, us or ms per operation
	fn     string // the public functions driven, as the span name
	// setup builds the probe's state from the seed.
	setup setupFunc
}

// runFunc performs about n operations and reports how many it did.
type runFunc func(n int) (int, error)

// setupFunc builds a probe's state.
type setupFunc func(env *probeEnv) (runFunc, error)

// probeEnv is what a probe's setup may draw on.
type probeEnv struct {
	rng     *rand.Rand
	seed    int64
	dir     string   // scratch directory, removed after the probe
	cleanup []func() // run after the last batch
}

// Batch protocol: at least probeBatches timed batches of about
// probeBatchTime each; the metric is the median over batches, so a
// scheduler hiccup in one batch does not move it.
const (
	probeBatches   = 64
	probeBatchTime = 2 * time.Millisecond
)

// Results of probe work are kept live here so the compiler cannot
// discard the measured calls.
var (
	sinkTime  units.Time
	sinkBytes units.ByteCount
	sinkInt   int
	sinkAny   any
)

var unitNs = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

// probeResult is a probe's timing plus the cost of a clock-kernel
// operation while it ran, which lets shares compare it with runs timed
// in another phase of the box's clock.
type probeResult struct {
	stat
	clockNs float64
}

// runProbe calibrates the batch size, then times the batches. Each
// batch is one span under the probe's span.
func (b *bench) runProbe(p probe) (probeResult, error) {
	dir, err := os.MkdirTemp(b.tmp, "probe-")
	if err != nil {
		return probeResult{}, err
	}
	defer os.RemoveAll(dir)
	env := &probeEnv{rng: rand.New(rand.NewSource(b.seed)), seed: b.seed, dir: dir}
	defer func() {
		for _, f := range env.cleanup {
			f()
		}
	}()
	parent := b.spans.start("probes", p.metric, 0)
	defer b.spans.end(parent)
	run, err := p.setup(env)
	if err != nil {
		return probeResult{}, fmt.Errorf("probe %s: %w", p.metric, err)
	}

	// Calibration doubles as warm-up: grow n until a batch is long
	// enough to time, then scale to the target batch length.
	n := 1
	for {
		start := time.Now()
		ops, err := run(n)
		el := time.Since(start)
		if err != nil {
			return probeResult{}, fmt.Errorf("probe %s: %w", p.metric, err)
		}
		if ops > 0 && el >= b.probeBatchTime/4 {
			n = max(1, int(float64(n)*float64(b.probeBatchTime)/float64(el)))
			break
		}
		if n >= 1<<26 {
			return probeResult{}, fmt.Errorf("probe %s: a batch of %d operations is too short to time", p.metric, n)
		}
		n *= 4
	}

	clock := startClockSampler()
	vals := make([]float64, b.probeBatches)
	for i := range vals {
		id := b.spans.start("probes", p.fn, parent)
		start := time.Now()
		ops, runErr := run(n)
		el := time.Since(start)
		b.spans.end(id)
		if runErr != nil || ops <= 0 {
			err = fmt.Errorf("probe %s: batch of %d did %d operations: %v", p.metric, n, ops, runErr)
			break
		}
		vals[i] = float64(el.Nanoseconds()) / float64(ops) / unitNs[p.unit]
	}
	clockNs := clock.finish()
	if err != nil {
		return probeResult{}, err
	}
	return probeResult{summarize(p.unit, vals), clockNs}, nil
}

// probes lists every isolated-layer probe, in packet-path order.
func probes() []probe {
	ps := []probe{
		{"eventq.heap_push_pop_ns", "ns", "eventq.PushArg+Pop", heapHold(false)},
		{"eventq.cancel_ns", "ns", "eventq.PushArg+Cancel+Pop", heapHold(true)},
		{"eventq.lane_push_pop_ns", "ns", "eventq.PushLaneArg+PopLE", laneHold},
		{"eventq.push_batch_ns_per_item", "ns", "eventq.PushBatch", batchPush(true)},
		{"eventq.push_loop_ns_per_item", "ns", "eventq.PushArg", batchPush(false)},
		{"sim.dispatch_ns", "ns", "sim.RunUntil", simDispatch(64)},
		{"sim.dispatch_ns.lanes8", "ns", "sim.RunUntil", simDispatch(8)},
	}
	for _, name := range bm.Names() {
		ps = append(ps, probe{"bm.threshold_ns." + name, "ns", "bm.Policy.Threshold", bmThreshold(name)})
	}
	for _, a := range aqmPolicies {
		ps = append(ps, probe{"aqm.on_arrival_ns." + a.name, "ns", "aqm.Policy.OnArrival", aqmArrival(a.mk)})
	}
	for _, c := range switchConfigs {
		ps = append(ps, probe{"device.switch_fwd_ns." + c.name, "ns", "device.Switch.Receive", switchFwd(c)})
	}
	ps = append(ps,
		probe{"device.admit_drop_ns", "ns", "device.Switch.Receive", admitDrop},
		probe{"topo.route_ns.leafspine", "ns", "device.Switch.RoutePort", routeLookup("leafspine")},
		probe{"topo.route_ns.fattree8", "ns", "device.Switch.RoutePort", routeLookup("fattree")},
		probe{"topo.link_event_us.fattree8", "us", "topo.Network.ApplyLinkEvent", linkEvent},
		probe{"topo.build_us.fattree8", "us", "scenario.BuildFabric", buildFabric(fabricSpec("fattree"))},
		probe{"transport.pkt_roundtrip_ns", "ns", "sim.RunUntil", pktRoundtrip},
	)
	for _, name := range cc.Names() {
		ps = append(ps, probe{"cc.on_ack_ns." + name, "ns", "cc.Algorithm.OnAck", ccOnAck(name)})
	}
	ps = append(ps,
		probe{"obs.hist_record_ns", "ns", "hist.Histogram.Record", histRecord},
		probe{"scenario.load_resolve_us", "us", "scenario.Load+Resolve", loadResolve},
		probe{"scenario.build_fabric_us", "us", "scenario.BuildFabric", buildFabric(fabricSpec("leafspine"))},
		probe{"metrics.summarize_us", "us", "metrics.Collector.Summarize", summarizeFlows},
		probe{"runner.store_put_ms", "ms", "runner.Store.Put", storePut},
		probe{"sweepd.filelog_append_ms", "ms", "sweepd.FileLog.Append+Sync", fileLogAppend},
	)
	return ps
}

// --- eventq ---------------------------------------------------------

const holdDepth = 4096

func nop(any) {}

// randomTimes returns n time increments in [1, max].
func randomTimes(rng *rand.Rand, n int, max int64) []units.Time {
	out := make([]units.Time, n)
	for i := range out {
		out[i] = units.Time(1 + rng.Int63n(max))
	}
	return out
}

// heapHold is the classic hold model on the fallback heap: pop the
// minimum, push a successor a random increment later, at a standing
// depth of 4096 — the shape of RTO re-arms and flow starts. With
// cancel set, every step also pushes one event and cancels it, so the
// cost of Cancel and of lazily discarding the dead node is included.
func heapHold(cancel bool) setupFunc {
	return func(env *probeEnv) (runFunc, error) {
		var q eventq.Queue
		offs := randomTimes(env.rng, holdDepth, 1<<30)
		for _, t := range offs {
			q.PushArg(t, nop, nil)
		}
		i := 0
		return func(n int) (int, error) {
			for k := 0; k < n; k++ {
				_, _, t, _ := q.Pop()
				q.PushArg(t+offs[i&(holdDepth-1)], nop, nil)
				i++
				if cancel {
					q.PushArg(t+offs[i&(holdDepth-1)], nop, nil).Cancel()
					i++
				}
				sinkTime = t
			}
			return n, nil
		}, nil
	}
}

// laneHold pushes in-order events through 64 lanes and pops them, the
// shape of link deliveries and port transmit completions.
func laneHold(env *probeEnv) (runFunc, error) {
	var q eventq.Queue
	const lanes = 64
	ids := make([]eventq.LaneID, lanes)
	for i := range ids {
		ids[i] = q.NewLane()
	}
	var tm units.Time
	i := 0
	push := func() {
		tm += 3
		q.PushLaneArg(ids[i&(lanes-1)], tm, nop, nil)
		i++
	}
	for k := 0; k < holdDepth/2; k++ {
		push()
	}
	return func(n int) (int, error) {
		for k := 0; k < n; k++ {
			push()
			_, _, t, _ := q.PopLE(tm)
			sinkTime = t
		}
		return n, nil
	}, nil
}

// batchPush injects 16-item batches into a busy calendar, the
// window-barrier shape of the parallel engine, through PushBatch or
// through a plain push loop; each round pops 16 back to hold the depth.
func batchPush(batch bool) setupFunc {
	return func(env *probeEnv) (runFunc, error) {
		var q eventq.Queue
		var now units.Time
		for i := 0; i < holdDepth; i++ {
			q.PushArg(now+units.Time(env.rng.Intn(1000)), nop, nil)
		}
		const k = 16
		items := make([]eventq.Item, k)
		return func(n int) (int, error) {
			rounds := (n + k - 1) / k
			for r := 0; r < rounds; r++ {
				for j := range items {
					items[j] = eventq.Item{Time: now + units.Time(100+j), Fn: nop}
				}
				if batch {
					q.PushBatch(items)
				} else {
					for j := range items {
						q.PushArg(items[j].Time, items[j].Fn, items[j].Arg)
					}
				}
				for j := 0; j < k; j++ {
					_, _, now, _ = q.Pop()
				}
			}
			sinkTime = now
			return rounds * k, nil
		}, nil
	}
}

// --- sim ------------------------------------------------------------

// simDispatch measures the engine's per-event overhead: each of the
// lanes carries one no-op event that re-arms itself, so RunUntil does
// nothing but pop, advance the clock, call and push. The cost grows
// with the number of busy lanes (the depth of the lane-head heap): 64
// is the order of a loaded fabric, 8 that of the one-switch probes
// below, whose event cost it is used to subtract.
func simDispatch(lanes int) setupFunc {
	return func(env *probeEnv) (runFunc, error) {
		s := sim.New(env.seed)
		type rearm struct{ lane sim.LaneID }
		var fire func(any)
		fire = func(a any) { s.AfterLaneArg(a.(*rearm).lane, units.Time(lanes), fire, a) }
		for i := 0; i < lanes; i++ {
			r := &rearm{lane: s.NewLane()}
			s.AtLaneArg(r.lane, units.Time(i+1), fire, r)
		}
		return func(n int) (int, error) {
			before := s.Executed()
			s.RunUntil(s.Now() + units.Time(n))
			return int(s.Executed() - before), nil
		}, nil
	}
}

// --- bm / aqm -------------------------------------------------------

// bmContexts spreads 16 buffer states across occupancy, queue length,
// priority, drain rate and congestion count.
func bmContexts() []*bm.Ctx {
	out := make([]*bm.Ctx, 16)
	total := 4 * units.Megabyte
	for i := range out {
		out[i] = &bm.Ctx{
			Total:             total,
			Occupied:          total / 16 * units.ByteCount(i),
			QueueLen:          units.ByteCount(i) * 10 * units.Kilobyte,
			Port:              i % 4,
			Prio:              i % 2,
			Alpha:             0.5,
			AlphaUnscheduled:  64,
			NormDrain:         1.0 / float64(i%3+1),
			CongestedSamePrio: i%5 + 1,
			Unscheduled:       i%4 == 0,
			FlowID:            uint64(i),
			PacketSize:        1500,
		}
	}
	return out
}

func bmThreshold(name string) setupFunc {
	return func(*probeEnv) (runFunc, error) {
		pol, err := bm.New(name, 64, units.Millisecond)
		if err != nil {
			return nil, err
		}
		ctxs := bmContexts()
		i := 0
		return func(n int) (int, error) {
			for k := 0; k < n; k++ {
				sinkBytes += pol.Threshold(ctxs[i&15])
				i++
			}
			return n, nil
		}, nil
	}
}

var aqmPolicies = []struct {
	name string
	mk   func() aqm.Policy
}{
	{"none", func() aqm.Policy { return aqm.None{} }},
	{"ecn", func() aqm.Policy { return aqm.ECNThreshold{K: 65 * 1500} }},
	{"red", func() aqm.Policy { return aqm.NewRED(0, 0) }},
	{"ared", func() aqm.Policy { return aqm.NewARED(0, 0) }},
	{"codel", func() aqm.Policy { return aqm.NewCodel(0, 0) }},
	{"pie", func() aqm.Policy { return aqm.NewPIE(0) }},
	{"cut-payload", func() aqm.Policy { return aqm.CutPayload{TrimAbove: 100 * units.Kilobyte} }},
}

// aqmArrival times one packet's AQM work: OnArrival, plus OnDequeue for
// sojourn-based policies (Codel decides at dequeue; its OnArrival is
// empty), over queue lengths from empty to 300 KB.
func aqmArrival(mk func() aqm.Policy) setupFunc {
	return func(env *probeEnv) (runFunc, error) {
		pol := mk()
		hook, _ := pol.(aqm.DequeueHook)
		ctxs := make([]aqm.Ctx, 16)
		for i := range ctxs {
			ctxs[i] = aqm.Ctx{
				QueueLen:   units.ByteCount(i) * 20 * units.Kilobyte,
				PacketSize: 1500,
				DrainRate:  10 * units.GigabitPerSec,
				ECNCapable: i%2 == 0,
			}
		}
		var now units.Time
		i := 0
		return func(n int) (int, error) {
			for k := 0; k < n; k++ {
				c := &ctxs[i&15]
				now += 1200 * units.Nanosecond
				c.Now = now
				sinkInt += int(pol.OnArrival(c, env.rng))
				if hook != nil && hook.OnDequeue(units.Time(i&15)*100*units.Microsecond, now) {
					sinkInt++
				}
				i++
			}
			return n, nil
		}, nil
	}
}

// --- device ---------------------------------------------------------

// sinkEndpoint terminates a link: it is the release point of every
// packet the probed switch forwards.
type sinkEndpoint struct {
	s  *sim.Simulator
	id packet.NodeID
}

func (e *sinkEndpoint) ID() packet.NodeID { return e.id }

func (e *sinkEndpoint) Receive(p *packet.Packet) { e.s.FreePacket(p) }

type switchConfig struct {
	name   string
	queues int
	sched  func() device.Scheduler
}

var switchConfigs = []switchConfig{
	{"q1-rr", 1, nil},
	{"q4-dwrr", 4, func() device.Scheduler { return &device.DWRR{} }},
	{"q8-strict", 8, func() device.Scheduler { return device.StrictPriority{} }},
}

const probePorts = 8

// probeSwitch builds one 8-port ABM switch whose ports end in sinks and
// whose router reads the egress port from the destination field.
func probeSwitch(seed int64, c switchConfig, buffer units.ByteCount) (*sim.Simulator, *device.Switch) {
	s := sim.New(seed)
	alphas := make([]float64, c.queues)
	for i := range alphas {
		alphas[i] = 0.5
	}
	sw := device.NewSwitch(s, device.SwitchConfig{
		ID: 10, NumPorts: probePorts, QueuesPerPort: c.queues,
		PortRate:     10 * units.GigabitPerSec,
		NewScheduler: c.sched,
		MMU: device.MMUConfig{
			BufferSize:    buffer,
			Alphas:        alphas,
			BM:            bm.ABM{},
			StatsInterval: 80 * units.Microsecond,
		},
	})
	sw.SetRouter(func(_ *device.Switch, p *packet.Packet) int { return int(p.Dst) })
	for i := 0; i < probePorts; i++ {
		sw.ConnectPort(i, device.NewLink(s, units.Microsecond, &sinkEndpoint{s: s, id: packet.NodeID(i)}))
	}
	return s, sw
}

// offer hands the switch one full-size data packet for (port, prio).
func offer(s *sim.Simulator, sw *device.Switch, port, prio int, flow uint64) {
	p := s.NewPacket()
	p.FlowID, p.Dst, p.Prio, p.Payload = flow, packet.NodeID(port), uint8(prio), 1440
	sw.Receive(p)
}

// switchFwd drives the whole switch data path per packet: Receive,
// route, MMU admission, scheduler, serialisation, Link.Send. Each round
// offers one packet to every queue of every port, then advances the
// clock by just over the time the ports need to drain them (95% load),
// so queues stay short and nothing is dropped.
func switchFwd(c switchConfig) setupFunc {
	return func(env *probeEnv) (runFunc, error) {
		s, sw := probeSwitch(env.seed, c, 2*units.Megabyte)
		tx := sw.Port(0).Rate().TxTime(1440 + packet.HeaderBytes)
		step := units.Time(c.queues) * tx * 20 / 19
		perRound := probePorts * c.queues
		var flow uint64
		return func(n int) (int, error) {
			rounds := (n + perRound - 1) / perRound
			for r := 0; r < rounds; r++ {
				for q := 0; q < c.queues; q++ {
					for p := 0; p < probePorts; p++ {
						flow++
						offer(s, sw, p, q, flow)
					}
				}
				s.RunUntil(s.Now() + step)
			}
			if sw.TotalDrops() != 0 {
				return 0, errors.New("switch dropped packets: the probe no longer measures forwarding")
			}
			return rounds * perRound, nil
		}, nil
	}
}

// admitDrop holds one queue at its threshold (the clock never advances,
// so nothing drains) and times the rejection path: Receive, route,
// threshold computation, drop accounting, packet release.
func admitDrop(env *probeEnv) (runFunc, error) {
	s, sw := probeSwitch(env.seed, switchConfigs[0], 64*units.Kilobyte)
	for sw.TotalDrops() == 0 {
		offer(s, sw, 0, 0, 1)
	}
	return func(n int) (int, error) {
		before := sw.TotalDrops()
		for k := 0; k < n; k++ {
			offer(s, sw, 0, 0, uint64(k))
		}
		if int(sw.TotalDrops()-before) != n {
			return 0, errors.New("switch admitted packets: the buffer is not held full")
		}
		return n, nil
	}, nil
}

// --- topo -----------------------------------------------------------

// fabricSpec is the fabric the topo probes build: the incast
// workload's 4x4x8 leaf–spine, or a k=8 fat tree (80 switches, 128
// hosts) where table size and rebuild cost show.
func fabricSpec(shape string) scenario.Scenario {
	sc := scenario.Scenario{
		Seed:     1,
		Duration: scenario.Duration(units.Millisecond),
		Fabric:   scenario.Fabric{Spines: 4, Leaves: 4, HostsPerLeaf: 8, LinkGbps: 10},
		Switch:   scenario.Switch{BM: "ABM"},
		Workload: scenario.Workload{Load: 0.6, CC: "cubic"},
	}
	if shape == "fattree" {
		sc.Fabric = scenario.Fabric{Topology: "fattree", K: 8, LinkGbps: 10}
	}
	return sc
}

func routeLookup(shape string) setupFunc {
	return func(env *probeEnv) (runFunc, error) {
		_, _, n, _, err := scenario.BuildFabric(fabricSpec(shape))
		if err != nil {
			return nil, err
		}
		pkts := make([]packet.Packet, 1024)
		for i := range pkts {
			pkts[i].FlowID = env.rng.Uint64()
			pkts[i].Dst = packet.NodeID(env.rng.Intn(n.NumHosts()))
		}
		sws := n.Switches()
		i := 0
		return func(cnt int) (int, error) {
			for k := 0; k < cnt; k++ {
				sinkInt += sws[i%len(sws)].RoutePort(&pkts[i&1023])
				i++
			}
			return cnt, nil
		}, nil
	}
}

// linkEvent takes a fabric link down and up again; each transition
// rebuilds every forwarding table.
func linkEvent(env *probeEnv) (runFunc, error) {
	_, _, n, _, err := scenario.BuildFabric(fabricSpec("fattree"))
	if err != nil {
		return nil, err
	}
	i := 0
	return func(cnt int) (int, error) {
		for k := 0; k < cnt; k++ {
			link := i % len(n.G.Links)
			n.ApplyLinkEvent(topo.LinkEvent{Link: link, State: topo.LinkDown})
			n.ApplyLinkEvent(topo.LinkEvent{Link: link, State: topo.LinkUp})
			i++
		}
		return cnt, nil
	}, nil
}

func buildFabric(sc scenario.Scenario) setupFunc {
	return func(*probeEnv) (runFunc, error) {
		return func(cnt int) (int, error) {
			for k := 0; k < cnt; k++ {
				_, _, n, _, err := scenario.BuildFabric(sc)
				if err != nil {
					return 0, err
				}
				sinkAny = n
			}
			return cnt, nil
		}, nil
	}
}

// --- transport / host / cc ------------------------------------------

// twoHostFabric is the smallest closed loop with the full packet
// lifecycle: hosts a and b on one switch, faster than its ports so the
// switch is the bottleneck.
type twoHostFabric struct {
	s     *sim.Simulator
	a, b  *host.Host
	sw    *device.Switch
	links []*device.Link
}

// newTwoHostFabric wires the fabric; sink (nil for none) receives the
// telemetry counters of every component.
func newTwoHostFabric(seed int64, sink *obs.Sink) *twoHostFabric {
	s := sim.New(seed)
	mk := func(id packet.NodeID) *host.Host {
		return host.New(s, host.Config{ID: id, Rate: 40 * units.GigabitPerSec, BaseRTT: 8 * units.Microsecond, Obs: sink})
	}
	f := &twoHostFabric{s: s, a: mk(1), b: mk(2)}
	f.sw = device.NewSwitch(s, device.SwitchConfig{
		ID: 10, NumPorts: 2, QueuesPerPort: 1, PortRate: 10 * units.GigabitPerSec,
		Obs: sink,
		MMU: device.MMUConfig{
			BufferSize:    150 * units.Kilobyte,
			Alphas:        []float64{0.5},
			BM:            bm.DT{},
			StatsInterval: 80 * units.Microsecond,
		},
	})
	f.sw.SetRouter(func(_ *device.Switch, p *packet.Packet) int { return int(p.Dst) - 1 })
	link := func(dst device.Endpoint) *device.Link {
		l := device.NewLink(s, units.Microsecond, dst)
		f.links = append(f.links, l)
		return l
	}
	f.a.Connect(link(f.sw))
	f.b.Connect(link(f.sw))
	f.sw.ConnectPort(0, link(f.a))
	f.sw.ConnectPort(1, link(f.b))
	return f
}

// pktRoundtrip times one data packet's whole life on the two-host
// fabric under an endless Reno flow: sender, NIC, link, switch, link,
// receiver, and the ACK's way back. Operations are payload packets
// delivered.
func pktRoundtrip(env *probeEnv) (runFunc, error) {
	f := newTwoHostFabric(env.seed, nil)
	f.a.StartFlow(1, 2, 1<<40, 0, cc.NewReno(), nil)
	f.s.RunUntil(20 * units.Millisecond) // past slow start and every amortised growth
	const mss = 1440
	perPkt := (10 * units.GigabitPerSec).TxTime(mss + packet.HeaderBytes)
	return func(n int) (int, error) {
		before := f.b.RxBytes
		f.s.RunUntil(f.s.Now() + units.Time(n)*perPkt)
		return int((f.b.RxBytes - before) / mss), nil
	}, nil
}

func ccOnAck(name string) setupFunc {
	return func(env *probeEnv) (runFunc, error) {
		mk, err := cc.NewFactory(name)
		if err != nil {
			return nil, err
		}
		alg := mk()
		alg.Init(cc.Config{
			MSS: 1440, BaseRTT: 80 * units.Microsecond,
			LineRate: 10 * units.GigabitPerSec, MaxCwnd: units.Megabyte,
		})
		// 16 feedback states: RTT from base to 2x base, every eighth ACK
		// marked, two INT hops with moving queue and byte counters.
		evs := make([]cc.AckEvent, 16)
		for i := range evs {
			evs[i] = cc.AckEvent{
				AckedBytes: 1440,
				RTT:        units.Time(80+5*i) * units.Microsecond,
				ECNMarked:  i%8 == 0,
				INT:        make([]packet.HopINT, 2),
			}
		}
		var now units.Time
		var txBytes units.ByteCount
		i := 0
		return func(n int) (int, error) {
			for k := 0; k < n; k++ {
				ev := &evs[i&15]
				now += 1200 * units.Nanosecond
				txBytes += 1500
				ev.Now = now
				for h := range ev.INT {
					ev.INT[h] = packet.HopINT{
						QLen:    units.ByteCount(i&15) * 3 * units.Kilobyte,
						TxBytes: txBytes, TS: now, Rate: 10 * units.GigabitPerSec,
					}
				}
				alg.OnAck(*ev)
				i++
			}
			sinkBytes += alg.Window()
			return n, nil
		}, nil
	}
}

// --- obs / scenario / metrics / stores ------------------------------

func histRecord(env *probeEnv) (runFunc, error) {
	var h hist.Histogram
	vals := make([]int64, 1024)
	for i := range vals {
		vals[i] = env.rng.Int63n(1 << uint(10+i%30))
	}
	i := 0
	return func(n int) (int, error) {
		for k := 0; k < n; k++ {
			h.Record(vals[i&1023])
			i++
		}
		sinkInt += int(h.Count())
		return n, nil
	}, nil
}

// loadResolve reads the incast workload's spec from disk and resolves
// it: the part of set-up that is parsing and defaulting.
func loadResolve(env *probeEnv) (runFunc, error) {
	data, err := workloads[0].specBytes()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(env.dir, "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return func(n int) (int, error) {
		for k := 0; k < n; k++ {
			sc, err := scenario.Load(path)
			if err != nil {
				return 0, err
			}
			r, err := sc.Resolve()
			if err != nil {
				return 0, err
			}
			sinkAny = r
		}
		return n, nil
	}, nil
}

// summarizeFlows reduces 5000 flow records, the size of a 100 ms cell.
func summarizeFlows(env *probeEnv) (runFunc, error) {
	col := &metrics.Collector{}
	for i := 0; i < 5000; i++ {
		size := units.ByteCount(1 + env.rng.Int63n(int64(2*units.Megabyte)))
		ideal := units.Time(1 + env.rng.Int63n(int64(units.Millisecond)))
		col.AddFlow(metrics.FlowRecord{
			ID: uint64(i), Class: metrics.FlowClass(i % 2), Size: size,
			Start: units.Time(i) * units.Microsecond, Ideal: ideal,
			End:      units.Time(i)*units.Microsecond + ideal*units.Time(1+env.rng.Intn(30)),
			Finished: true,
		})
	}
	for i := 0; i < 1000; i++ {
		col.SampleBuffer(env.rng.Float64())
	}
	return func(n int) (int, error) {
		for k := 0; k < n; k++ {
			sinkAny = col.Summarize(10 * units.GigabitPerSec)
		}
		return n, nil
	}, nil
}

// recordMaker returns job records of realistic size: a summary and the
// resolved scenario echo of the incast workload.
func recordMaker() (func(i int) runner.Record, error) {
	sc, err := workloads[0].spec(1)
	if err != nil {
		return nil, err
	}
	r, err := sc.Resolve()
	if err != nil {
		return nil, err
	}
	return func(i int) runner.Record {
		return runner.Record{
			ID: fmt.Sprintf("probe/%06d", i), Experiment: "probe", Group: "g",
			Seed: int64(i), Status: runner.StatusOK, Attempts: 1, WallMS: 100,
			Result: &runner.Result{
				Summary:  metrics.Summary{P99IncastSlowdown: 12.5, Flows: 3000},
				Events:   1 << 20,
				Drops:    1234,
				Scenario: r,
			},
		}
	}, nil
}

// storePut persists one record in the per-job JSON store: marshal,
// temp file, fsync, rename, manifest append, fsync.
func storePut(env *probeEnv) (runFunc, error) {
	store, err := runner.OpenStore(filepath.Join(env.dir, "store"))
	if err != nil {
		return nil, err
	}
	env.cleanup = append(env.cleanup, func() { store.Close() })
	record, err := recordMaker()
	if err != nil {
		return nil, err
	}
	i := 0
	return func(n int) (int, error) {
		for k := 0; k < n; k++ {
			if err := store.Put(record(i)); err != nil {
				return 0, err
			}
			i++
		}
		return n, nil
	}, nil
}

// fileLogAppend commits one batch of 8 records to the CRC-framed
// record log: one write, one fsync.
func fileLogAppend(env *probeEnv) (runFunc, error) {
	log, err := sweepd.OpenFileLog(filepath.Join(env.dir, "records.log"))
	if err != nil {
		return nil, err
	}
	env.cleanup = append(env.cleanup, func() { log.Close() })
	record, err := recordMaker()
	if err != nil {
		return nil, err
	}
	batch := make([]runner.Record, 8)
	i := 0
	return func(n int) (int, error) {
		for k := 0; k < n; k++ {
			for j := range batch {
				batch[j] = record(i)
				i++
			}
			if err := log.Append(batch); err != nil {
				return 0, err
			}
			if err := log.Sync(); err != nil {
				return 0, err
			}
		}
		return n, nil
	}, nil
}
