// Package hybrid couples a per-flow fluid approximation to the packet
// engine: flows in provable steady state are *demoted* to fluid mode —
// their per-packet events torn down, their throughput modeled as an
// arrival rate into per-queue integrators (internal/analytic) stepped
// once per epoch — while bursts, queue excursions, and every loss, mark
// or retransmission remain packet-level. Any disturbance *promotes* the
// affected flows back to packet mode with sender/receiver state
// reconstructed from the fluid trajectory.
//
// # Mode lifecycle
//
// A flow becomes a demotion candidate at launch (topo.Network.OnFlowStart)
// if it is large enough to plausibly reach steady state. Each epoch the
// controller demotes candidates that satisfy all of: an RTT estimate
// exists, no congestion signal (recovery entry, RTO, ECN mark) for
// SteadyRTTs smoothed RTTs, the congestion window stable across epochs,
// enough bytes remaining, and every queue on the routed path below the
// guard band. A fluid flow is promoted when any of: a new flow starts
// on a shared port (burst/incast), a path queue's packet+fluid occupancy
// crosses the guard band, a congestion signal arrives on a straggler
// ACK, or completion nears — so completion, like every drop and mark, is
// always observed in packet mode.
//
// # Exactness
//
// Byte counts are exact: fluid delivery is credited to the receiver
// exactly once at promotion (transport.Receiver.AdvanceTo), and the
// sender resumes from the same offset. FCT is exact in expectation —
// the fluid rate is the max-min fair share over measured spare capacity,
// capped by the flow's own cwnd/srtt demand, which is what the packet
// engine converges to in steady state. MMU admission stays coupled:
// each switch's fluid occupancy is charged against its shared buffer
// (device.MMU.SetFluidBytes), so thresholds seen by packet-mode bursts
// account for fluid traffic. The one approximation: packets that were
// in flight at demotion are presumed delivered (the demotion criteria
// make a loss among them vanishingly rare); a loss there would surface
// as a missing retransmission, never as corrupt accounting.
package hybrid

import (
	"abm/internal/analytic"
	"abm/internal/cc"
	"abm/internal/device"
	"abm/internal/host"
	"abm/internal/obs"
	"abm/internal/obs/hist"
	"abm/internal/packet"
	"abm/internal/sim"
	"abm/internal/topo"
	"abm/internal/transport"
	"abm/internal/units"
)

// Config parameterizes the controller; scenario.Hybrid resolves into it.
type Config struct {
	// GuardBandFrac is the fraction of a queue's admission threshold at
	// which fluid flows are promoted back to packet mode (and above
	// which demotion is refused).
	GuardBandFrac float64
	// SteadyRTTs is how many smoothed RTTs must pass without a
	// congestion signal before a flow may be demoted.
	SteadyRTTs int
	// EpochDt is the fluid integration epoch.
	EpochDt units.Time
	// Obs is the telemetry sink; nil disables trace events and leaves the
	// controller's counts (Stats) out of the session's totals.
	Obs *obs.Sink
}

// Stats summarizes one run's hybrid activity.
type Stats struct {
	Demotions  int64
	Promotions int64
	Epochs     int64
	FluidBytes int64 // bytes delivered in fluid mode
	MaxFluid   int   // high-water concurrent fluid flows
}

// cand is a packet-mode flow being watched for steady state. The
// steadiness detector is a window band: bandW anchors the congestion
// window when the observation window (re)starts, and any excursion
// beyond ±5% restarts it — so a flow still drifting toward its
// equilibrium share (additive increase, or losing a capture contest)
// keeps resetting and is not demoted until its window genuinely holds.
type cand struct {
	id       uint64
	src, dst int
	prio     uint8
	sn       *transport.Sender
	bandW    units.ByteCount // window anchor of the current stable period
	lastUna  int64
	emaRate  float64    // EWMA of achieved goodput (payload bytes/s)
	obsAt    units.Time // when the current stable period began
	obsUna   int64      // sndUna at that point
}

// portKey names a capacity constraint: a switch egress port, or a
// source host NIC (port == -1).
type portKey struct {
	node packet.NodeID
	port int
}

// portState measures the packet traffic through one constraint and
// holds the water-filling scratch.
type portState struct {
	sw   *device.Switch // nil for a NIC
	port int
	h    *host.Host // non-nil for a NIC

	lastTx  units.ByteCount
	pktRate float64 // smoothed packet bytes/s (EWMA over epochs)
	seeded  bool    // pktRate has a first sample
	nflows  int

	capRem float64 // allocation scratch
	nact   int
	demand float64 // drain-split scratch: sum of fluid queue demand
}

func (ps *portState) txBytes() units.ByteCount {
	if ps.sw != nil {
		return ps.sw.Port(ps.port).TxBytes
	}
	return ps.h.TxBytes
}

func (ps *portState) lineRate() units.Rate {
	if ps.sw != nil {
		return ps.sw.Port(ps.port).Rate()
	}
	return ps.h.Rate()
}

// queueKey names one egress queue carrying fluid.
type queueKey struct {
	node packet.NodeID
	port int
	prio uint8
}

// queueState is the fluid integrator state of one egress queue.
type queueState struct {
	fq     *analytic.FluidQueue
	q      *device.Queue
	ps     *portState // the queue's port constraint (for spare capacity)
	sm     *swModel
	nflows int
}

// swModel is one switch's coupled fluid model; its occupancy feeds the
// MMU's fluid-bytes charge.
type swModel struct {
	sw    *device.Switch
	model *analytic.FluidModel
	qs    []*queueState
	dirty bool // queue set changed; rebuild model.Queues before stepping
}

// flow is one fluid-mode flow.
type flow struct {
	id       uint64
	src, dst int
	prio     uint8
	sn       *transport.Sender
	path     []topo.PathHop
	cons     []*portState  // NIC + path ports
	qss      []*queueState // path queues at the flow's priority

	base      int64      // stream offset (sndNxt) at demotion
	delivered float64    // fluid payload bytes delivered since demotion
	rate      float64    // wire bytes/s allocated for the current epoch
	ramp      float64    // wire bytes/s the CC has demonstrably reached
	ramp0     float64    // anchor wire rate (achieved at demotion, rebalanced)
	drain0    float64    // raw achieved wire rate at demotion (settle credit)
	eta       float64    // CC efficiency: achieved / available; 0 = uncalibrated
	pot0      float64    // potential at calibration (linear-response anchor)
	srtt      units.Time // smoothed RTT at demotion, frozen
	demotedAt units.Time
	// settleUntil: until then, packets in flight at demotion are still
	// draining through the path at ~ramp0, polluting the port counters.
	settleUntil units.Time

	frozen bool // water-filling scratch
}

// Controller runs the hybrid engine for one serial simulation.
type Controller struct {
	sim *sim.Simulator
	net *topo.Network
	cfg Config

	tick      *sim.Ticker
	lastEpoch units.Time

	cands []*cand
	flows []*flow

	ports    map[portKey]*portState
	portList []*portState
	queues   map[queueKey]*queueState
	models   map[packet.NodeID]*swModel
	modelLst []*swModel

	pathBuf []topo.PathHop // OnFlowStart scratch
	minSize units.ByteCount
	// payloadFrac converts wire rate to goodput (MSS over MSS+header):
	// port capacities are wire bytes, delivery credits are stream bytes.
	payloadFrac float64

	stats         Stats
	histResidency *hist.Histogram
	histPromoLead *hist.Histogram
}

// New builds a controller over a serial-engine network. Call Start to
// begin integration epochs and install the flow-start hook.
func New(s *sim.Simulator, n *topo.Network, cfg Config) *Controller {
	if cfg.GuardBandFrac <= 0 || cfg.GuardBandFrac > 1 {
		cfg.GuardBandFrac = 0.5
	}
	if cfg.SteadyRTTs <= 0 {
		cfg.SteadyRTTs = 8
	}
	if cfg.EpochDt <= 0 {
		cfg.EpochDt = 8 * n.Cfg.LinkDelay
	}
	c := &Controller{
		sim:    s,
		net:    n,
		cfg:    cfg,
		ports:  make(map[portKey]*portState),
		queues: make(map[queueKey]*queueState),
		models: make(map[packet.NodeID]*swModel),
		// A flow must outlast the steady-state probation to be worth
		// demoting; 4 BDPs is a cheap prefilter for the candidate list.
		minSize:       4 * n.Cfg.LinkRate.BytesOver(n.BaseRTT()),
		payloadFrac:   float64(n.Cfg.MSS) / float64(n.Cfg.MSS+packet.HeaderBytes),
		histResidency: cfg.Obs.Hist(obs.HistHybridResidency),
		histPromoLead: cfg.Obs.Hist(obs.HistHybridPromoLead),
	}
	cfg.Obs.AddSource(c)
	return c
}

// Start installs the flow-start hook and begins integration epochs.
func (c *Controller) Start() {
	c.net.OnFlowStart = c.onFlowStart
	c.lastEpoch = c.sim.Now()
	c.tick = c.sim.NewTicker(c.cfg.EpochDt, c.epoch)
}

// Stop halts integration, advances fluid delivery to now, and promotes
// every remaining fluid flow so the post-deadline event flush completes
// flows in packet mode exactly like a pure-packet run. MMU fluid
// charges are cleared.
func (c *Controller) Stop() {
	if c.tick != nil {
		c.tick.Stop()
		c.tick = nil
	}
	c.net.OnFlowStart = nil
	now := c.sim.Now()
	for _, f := range c.flows {
		c.settle(f, now)
		c.promote(f, now)
	}
	c.lastEpoch = now
	c.flows = c.flows[:0]
	for _, sm := range c.modelLst {
		sm.sw.MMU().SetFluidBytes(0)
	}
}

// Stats returns the run's hybrid activity summary.
func (c *Controller) Stats() Stats { return c.stats }

// AddCounts implements obs.Source with the hybrid activity counts.
func (c *Controller) AddCounts(t *obs.Tally) {
	t[obs.CtrHybridDemotions] += c.stats.Demotions
	t[obs.CtrHybridPromotions] += c.stats.Promotions
	t[obs.CtrHybridEpochs] += c.stats.Epochs
	t[obs.CtrHybridFluidBytes] += c.stats.FluidBytes
}

// FluidFlows returns the number of flows currently in fluid mode.
func (c *Controller) FluidFlows() int { return len(c.flows) }

// settle credits a fluid flow's delivery for the partial epoch since
// the last integration tick. Promotions that happen outside epoch()
// (which has already credited the interval) must settle first, or the
// lastEpoch..now stretch of the fluid trajectory is silently dropped
// and the promoted sender re-covers those bytes in packet mode.
func (c *Controller) settle(f *flow, now units.Time) {
	if sec := (now - c.lastEpoch).Seconds(); sec > 0 {
		f.delivered += float64(f.rate * sec * c.payloadFrac)
	}
}

// onFlowStart is the topo.Network flow-launch hook: a new burst at a
// shared port promotes fluid flows before the burst's first packet can
// race them, and large flows join the candidate list.
func (c *Controller) onFlowStart(id uint64, src, dst int, size units.ByteCount, prio uint8) {
	if len(c.flows) > 0 {
		c.pathBuf = c.net.PathQueues(id, src, dst, c.pathBuf[:0])
		now := c.sim.Now()
		kept := c.flows[:0]
		for _, f := range c.flows {
			if sharesPort(f.path, c.pathBuf) {
				c.settle(f, now)
				c.promote(f, now)
				continue
			}
			kept = append(kept, f)
		}
		c.flows = kept
	}
	if size >= c.minSize {
		c.cands = append(c.cands, &cand{id: id, src: src, dst: dst, prio: prio})
	}
}

// sharesPort reports whether two routed paths traverse a common egress
// port (any priority: port bandwidth is the shared resource).
func sharesPort(a, b []topo.PathHop) bool {
	for _, ha := range a {
		for _, hb := range b {
			if ha.Sw == hb.Sw && ha.Port == hb.Port {
				return true
			}
		}
	}
	return false
}

// epoch is the integration tick: advance fluid trajectories, step the
// per-switch models into the MMUs, run promotion checks, scan
// candidates for demotion, then re-measure spare capacity and
// re-allocate fluid rates.
func (c *Controller) epoch() {
	now := c.sim.Now()
	dt := now - c.lastEpoch
	c.lastEpoch = now
	sec := dt.Seconds()
	c.stats.Epochs++

	for _, f := range c.flows {
		f.delivered += float64(f.rate * sec * c.payloadFrac)
	}
	for _, sm := range c.modelLst {
		if sm.dirty {
			sm.model.Queues = sm.model.Queues[:0]
			for _, qs := range sm.qs {
				sm.model.Queues = append(sm.model.Queues, qs.fq)
			}
			sm.dirty = false
		}
		sm.model.Step(dt)
		sm.sw.MMU().SetFluidBytes(units.ByteCount(sm.model.Occupancy() + 0.5))
	}

	c.checkPromotions(now)
	c.scanCandidates(now, sec)
	c.measure(now, dt)
	c.allocate(now, sec)
}

// remaining returns the bytes the fluid trajectory has not yet covered.
func (f *flow) remaining() float64 {
	return float64(f.sn.Size) - float64(f.base) - f.delivered
}

// margin is the completion lead: promote while at least this many bytes
// remain, so the tail — and the FIN/ACK exchange that stamps the FCT —
// plays out packet-level.
func (c *Controller) margin(f *flow) float64 {
	lead := (2*f.sn.SRTT() + 2*c.cfg.EpochDt).Seconds()
	return float64(f.rate*lead) + float64(f.sn.Alg().Window()) + float64(4*float64(c.net.Cfg.MSS))
}

// guardBandHot reports whether any queue on the flow's path holds more
// packet+fluid bytes than the guard band below its admission threshold
// allows.
func (c *Controller) guardBandHot(f *flow) bool {
	for i, hop := range f.path {
		q := hop.Sw.Port(hop.Port).Queue(int(f.prio))
		occ := float64(q.Bytes())
		if i < len(f.qss) {
			occ += f.qss[i].fq.Len
		}
		thr := float64(q.LastThreshold())
		if thr > 0 {
			if occ > c.cfg.GuardBandFrac*thr {
				return true
			}
		} else if occ > 0 {
			return true // no threshold on record yet: any backlog is hot
		}
	}
	return false
}

// checkPromotions promotes fluid flows whose steady-state premise no
// longer holds, or whose completion nears.
func (c *Controller) checkPromotions(now units.Time) {
	kept := c.flows[:0]
	for _, f := range c.flows {
		switch {
		case f.sn.Disturbed(),
			f.remaining() <= c.margin(f),
			c.guardBandHot(f):
			c.promote(f, now)
		default:
			kept = append(kept, f)
		}
	}
	c.flows = kept
}

// scanCandidates demotes packet-mode flows that reached steady state.
//
// Demotion is all-or-none across the candidate set: a fluid flow stops
// emitting packets, so any still-packet flow sharing a port with it —
// including via its ACK return path — would see an emptier network
// than the pure packet engine shows (lower RTT, spare bandwidth) and
// converge to a different, unfaithful equilibrium before its own
// demotion froze that error into its anchor. Holding the cohort back
// until every candidate is simultaneously steady means nobody observes
// a fluid-perturbed network from packet mode; if the mesh never
// globally settles (e.g. ECMP capture contests keep windows drifting),
// the run degrades gracefully toward pure packet fidelity.
func (c *Controller) scanCandidates(now units.Time, sec float64) {
	// First pass: refresh every candidate's observation state and count
	// how many are individually steady.
	kept := c.cands[:0]
	ready := 0
	for _, cd := range c.cands {
		if cd.sn == nil {
			cd.sn = c.net.Hosts[cd.src].Sender(cd.id)
			if cd.sn == nil {
				kept = append(kept, cd)
				continue
			}
			cd.obsAt = now
			cd.obsUna = cd.sn.SndUna()
			cd.bandW = cd.sn.Alg().Window()
		}
		sn := cd.sn
		if sn.Finished() || sn.Fluid() {
			continue // drop: done, or already tracked as fluid
		}
		una := sn.SndUna()
		// Band check: a window excursion restarts the stable period, so
		// the observation average only ever covers one CC regime.
		w := sn.Alg().Window()
		if diff := w - cd.bandW; diff > cd.bandW/20 || -diff > cd.bandW/20 {
			cd.bandW = w
			cd.obsAt = now
			cd.obsUna = una
		}
		// EWMA of achieved goodput, smoothing the CC's sawtooth over a
		// few RTTs (diagnostic comparator for the stable-period average).
		if cd.lastUna > 0 && sec > 0 {
			inst := float64(una-cd.lastUna) / sec
			if cd.emaRate == 0 {
				cd.emaRate = inst
			} else {
				cd.emaRate += float64(0.25 * (inst - cd.emaRate))
			}
		}
		cd.lastUna = una
		if c.steady(cd, now) {
			ready++
		}
		kept = append(kept, cd)
	}
	c.cands = kept
	if ready == 0 || ready < len(c.cands) {
		return
	}
	// Second pass: the whole cohort is steady — demote everyone in the
	// same epoch so no candidate ever runs packet-mode beside a fluid
	// peer.
	start := len(c.flows)
	for _, cd := range c.cands {
		c.demote(cd, now)
	}
	c.cands = c.cands[:0]
	c.rebalance(c.flows[start:])
}

// rebalance redistributes a freshly demoted cohort's anchors toward the
// max-min fair split of what the cohort collectively achieved on each
// shared constraint. Identical competitors on a shared bottleneck can
// hold an unfair split for many RTTs (capture under delay-based CC) —
// long enough to pass the band gate — but the packet engine rebalances
// such splits on timescales far beyond the probation window, so
// freezing one into the anchors would extrapolate a transient. Each
// port's cohort aggregate is preserved exactly (only the split among
// members moves), so queue and MMU fidelity is untouched; ports
// carrying a single cohort member redistribute nothing and impose no
// bound (their anchor already reflects whatever else they carry).
func (c *Controller) rebalance(cohort []*flow) {
	if len(cohort) < 2 {
		return
	}
	for _, f := range cohort {
		for _, ps := range f.cons {
			ps.capRem = 0
			ps.nact = 0
		}
	}
	shared := make(map[*portState]bool)
	for _, f := range cohort {
		for _, ps := range f.cons {
			ps.capRem += f.ramp0
			ps.nact++
			if ps.nact > 1 {
				shared[ps] = true
			}
		}
	}
	if len(shared) == 0 {
		return
	}
	// Only members touching a shared constraint participate: a flow that
	// shares no port with any other member has nothing to redistribute,
	// and water-filling it would replace its measured anchor with an
	// unconstrained bound (the NIC line rate).
	contested := cohort[:0:0]
	for _, f := range cohort {
		for _, ps := range f.cons {
			if shared[ps] {
				contested = append(contested, f)
				break
			}
		}
	}
	for _, f := range contested {
		f.frozen = false
	}
	bound := func(f *flow) float64 {
		r := float64(f.cons[0].lineRate()) / 8 // source NIC line rate
		for _, ps := range f.cons {
			if !shared[ps] || ps.nact == 0 {
				continue
			}
			if share := ps.capRem / float64(ps.nact); share < r {
				r = share
			}
		}
		return r
	}
	for unfrozen := len(contested); unfrozen > 0; {
		minRate := -1.0
		for _, f := range contested {
			if f.frozen {
				continue
			}
			if r := bound(f); minRate < 0 || r < minRate {
				minRate = r
			}
		}
		for _, f := range contested {
			if f.frozen {
				continue
			}
			r := bound(f)
			if r <= minRate*(1+1e-9) {
				f.frozen = true
				f.ramp0 = r
				f.ramp = r
				unfrozen--
				for _, ps := range f.cons {
					ps.capRem -= r
					if ps.capRem < 0 {
						ps.capRem = 0
					}
					ps.nact--
				}
			}
		}
	}
}

// steady applies the demotion criteria.
func (c *Controller) steady(cd *cand, now units.Time) bool {
	sn := cd.sn
	srtt := sn.SRTT()
	if srtt <= 0 || sn.InRecovery() || cd.emaRate <= 0 {
		return false
	}
	probation := units.Time(c.cfg.SteadyRTTs) * srtt
	// The window band must have held for the whole probation: a flow
	// whose share is still drifting (additive-increase climb, capture
	// contests under ECMP collisions) keeps restarting the band and
	// never gets this far with a stale rate.
	if now-cd.obsAt < probation {
		return false
	}
	if d := sn.LastDisturb(); d > 0 && now-d < probation {
		return false
	}
	// The stable-period average must corroborate the window's implied
	// rate: disagreement means srtt or the delivery trace is still
	// moving, and the anchor would extrapolate a transient.
	stint := float64(sn.SndUna()-cd.obsUna) / (now - cd.obsAt).Seconds()
	implied := float64(sn.Alg().Window()) / srtt.Seconds()
	if stint <= 0 || implied < 0.9*stint || implied > 1.1*stint {
		return false
	}
	// Enough runway that demotion pays for the promote/demote round trip.
	demand := float64(sn.Alg().Window()) / srtt.Seconds()
	lead := float64(demand*(2*srtt+2*c.cfg.EpochDt).Seconds()) + float64(sn.Alg().Window()) + float64(4*float64(c.net.Cfg.MSS))
	if float64(sn.Size)-float64(sn.SndNxt()) <= 2*lead {
		return false
	}
	// Path calm: every queue below the guard band.
	for _, hop := range c.net.PathQueues(cd.id, cd.src, cd.dst, c.pathBuf[:0]) {
		q := hop.Sw.Port(hop.Port).Queue(int(cd.prio))
		thr := float64(q.LastThreshold())
		occ := float64(q.Bytes())
		if qs, ok := c.queues[queueKey{hop.Sw.ID(), hop.Port, cd.prio}]; ok {
			occ += qs.fq.Len
		}
		if thr > 0 {
			if occ > c.cfg.GuardBandFrac*thr {
				return false
			}
		} else if occ > 0 {
			return false
		}
	}
	c.pathBuf = c.pathBuf[:0]
	return true
}

// portStateFor returns (creating if needed) the constraint for a switch
// egress port or, with sw == nil, the src host's NIC.
func (c *Controller) portStateFor(sw *device.Switch, port int, hostIdx int) *portState {
	var k portKey
	if sw != nil {
		k = portKey{sw.ID(), port}
	} else {
		k = portKey{packet.NodeID(hostIdx), -1}
	}
	ps, ok := c.ports[k]
	if !ok {
		ps = &portState{sw: sw, port: port}
		if sw == nil {
			ps.h = c.net.Hosts[hostIdx]
		}
		ps.lastTx = ps.txBytes()
		c.ports[k] = ps
		c.portList = append(c.portList, ps)
	}
	return ps
}

// queueStateFor returns (creating if needed) the fluid integrator for
// one egress queue, wiring it into its switch's coupled model.
func (c *Controller) queueStateFor(sw *device.Switch, port int, prio uint8, ps *portState) *queueState {
	k := queueKey{sw.ID(), port, prio}
	qs, ok := c.queues[k]
	if !ok {
		sm, ok := c.models[sw.ID()]
		if !ok {
			mmu := sw.MMU()
			sm = &swModel{sw: sw, model: analytic.NewFluidModel(mmu.BufferSize())}
			c.models[sw.ID()] = sm
			c.modelLst = append(c.modelLst, sm)
		}
		// Omega 1: the model's own admission cap is the whole buffer;
		// the real Eq. 9 thresholds gate promotion via the guard band
		// long before fluid could reach it.
		qs = &queueState{
			fq: &analytic.FluidQueue{Omega: 1},
			q:  sw.Port(port).Queue(int(prio)),
			ps: ps,
			sm: sm,
		}
		c.queues[k] = qs
		sm.qs = append(sm.qs, qs)
		sm.dirty = true
	}
	return qs
}

// demote moves a candidate into fluid mode.
func (c *Controller) demote(cd *cand, now units.Time) {
	sn := cd.sn
	srtt := sn.SRTT()
	// The calibration rate is the average goodput over the stable period
	// the band gate just certified — the delivered rate of the regime
	// being extrapolated, free of pre-steady ramp and sawtooth phase
	// (steady() has already cross-checked it against W/SRTT).
	achieved := float64(sn.SndUna()-cd.obsUna) / (now - cd.obsAt).Seconds()
	if achieved <= 0 {
		achieved = cd.emaRate
	}
	f := &flow{
		id: cd.id, src: cd.src, dst: cd.dst, prio: cd.prio,
		sn:        sn,
		path:      c.net.PathQueues(cd.id, cd.src, cd.dst, nil),
		base:      sn.SndNxt(),
		ramp0:     achieved / c.payloadFrac, // achieved goodput, on the wire
		drain0:    achieved / c.payloadFrac,
		srtt:      srtt,
		demotedAt: now,
		// In-flight packets drain through the farthest hop for about one
		// RTT after the last send; until then port counters still see
		// this flow.
		settleUntil: now + srtt + 2*c.cfg.EpochDt,
	}
	f.ramp = f.ramp0
	f.cons = append(f.cons, c.portStateFor(nil, -1, f.src))
	for _, hop := range f.path {
		ps := c.portStateFor(hop.Sw, hop.Port, 0)
		f.cons = append(f.cons, ps)
		f.qss = append(f.qss, c.queueStateFor(hop.Sw, hop.Port, f.prio, ps))
	}
	for _, ps := range f.cons {
		ps.nflows++
	}
	for _, qs := range f.qss {
		qs.nflows++
	}
	sn.Demote()
	c.flows = append(c.flows, f)
	if len(c.flows) > c.stats.MaxFluid {
		c.stats.MaxFluid = len(c.flows)
	}
	c.stats.Demotions++
	if c.cfg.Obs.Enabled(obs.KindHybridDemote) {
		c.cfg.Obs.Emit(obs.Event{
			At:   now,
			Kind: obs.KindHybridDemote,
			Node: int32(f.src),
			Flow: f.id,
			Seq:  f.base,
			QLen: sn.Alg().Window(),
			Aux:  int64(f.ramp0),
		})
	}
}

// promote returns one flow to packet mode: the receiver is credited
// with the fluid trajectory, the congestion window is re-centered on
// the achieved rate, and the sender resumes (or completes). The caller
// removes f from c.flows.
func (c *Controller) promote(f *flow, now units.Time) {
	deliveredTo := f.base + int64(f.delivered)
	if deliveredTo > int64(f.sn.Size) {
		deliveredTo = int64(f.sn.Size)
	}
	fluidBytes := deliveredTo - f.base
	for _, ps := range f.cons {
		ps.nflows--
	}
	for _, qs := range f.qss {
		qs.nflows--
		if qs.nflows == 0 {
			qs.fq.Arrival = 0 // residual fluid drains out of the model
		}
		// Per-queue visibility for the counters table: the stint's
		// payload bytes traversed every queue on the flow's path in
		// fluid mode, invisible to the enq/deq counters.
		qs.q.FluidBytes += units.ByteCount(fluidBytes)
	}
	c.stats.Promotions++
	c.stats.FluidBytes += fluidBytes
	c.histResidency.Record(int64(now - f.demotedAt))
	c.histPromoLead.Record(int64(f.sn.Size) - deliveredTo)

	c.net.Hosts[f.dst].AdvanceReceiver(f.id, packet.NodeID(f.src), deliveredTo)
	sn := f.sn
	if rs, ok := sn.Alg().(cc.WindowRescaler); ok && sn.SRTT() > 0 && f.rate > 0 {
		w := units.ByteCount(f.rate * c.payloadFrac * sn.SRTT().Seconds())
		old := sn.Alg().Window()
		// The reconstruction must not leap outside what the algorithm
		// could have reached: clamp to a halving/doubling of the
		// demotion-time window.
		if w < old/2 {
			w = old / 2
		}
		if w > 2*old {
			w = 2 * old
		}
		rs.SetWindow(w)
	}
	if c.cfg.Obs.Enabled(obs.KindHybridPromote) {
		c.cfg.Obs.Emit(obs.Event{
			At:   now,
			Kind: obs.KindHybridPromote,
			Node: int32(f.src),
			Flow: f.id,
			Seq:  deliveredTo,
			QLen: sn.Alg().Window(),
			Aux:  fluidBytes,
		})
	}
	sn.Promote(deliveredTo)
	if !sn.Finished() {
		// Back on the candidate list: it may reach steady state again.
		// Observation restarts here so the achieved-rate average covers
		// only this packet-mode stint, not earlier contention regimes.
		c.cands = append(c.cands, &cand{
			id: f.id, src: f.src, dst: f.dst, prio: f.prio, sn: sn,
			obsAt: now, obsUna: deliveredTo, bandW: sn.Alg().Window(),
		})
	}
}

// measure refreshes each constraint's packet throughput over the last
// epoch. Fluid flows emit no packets, so the counters measure exactly
// the competing packet traffic whose leftovers fluid may use — except
// freshly demoted flows, whose pre-demotion sends and still-draining
// flight pollute the counters until settleUntil: the known achieved
// rate is credited back for the polluted fraction of the epoch.
func (c *Controller) measure(now, dt units.Time) {
	sec := dt.Seconds()
	if sec <= 0 {
		return
	}
	for _, ps := range c.portList {
		cur := ps.txBytes()
		ps.capRem = float64(cur-ps.lastTx) / sec // raw sample, in scratch
		ps.lastTx = cur
	}
	epochStart := now - dt
	for _, f := range c.flows {
		if f.settleUntil <= epochStart {
			continue
		}
		end := f.settleUntil
		if end > now {
			end = now
		}
		frac := (end - epochStart).Seconds() / sec
		if frac > 1 {
			frac = 1
		}
		for _, ps := range f.cons {
			ps.capRem -= float64(f.drain0 * frac)
			if ps.capRem < 0 {
				ps.capRem = 0
			}
		}
	}
	// EWMA over epochs damps the CC sawtooth of still-packet-mode flows,
	// which otherwise injects ±15% noise into spare-capacity estimates.
	for _, ps := range c.portList {
		if !ps.seeded {
			ps.pktRate = ps.capRem
			ps.seeded = true
		} else {
			ps.pktRate += float64(0.3 * (ps.capRem - ps.pktRate))
		}
	}
}

// cap is the flow's own rate bound this epoch: what its congestion
// control has demonstrably reached (ramp), plus one epoch of additive
// increase (1 MSS of cwnd per RTT, the conservative common pace), never
// beyond the source NIC. A competitor completing frees share instantly,
// but a real CC claims it over many RTTs — the ramp makes the fluid
// trajectory claim it at the same pace.
func (f *flow) cap(sec float64, mss float64) float64 {
	srtt := f.srtt.Seconds()
	r := f.ramp + mss*sec/(srtt*srtt)
	if nic := float64(f.cons[0].lineRate()) / 8; r > nic {
		r = nic
	}
	return r
}

// allocate computes each fluid flow's rate for the next epoch: the
// max-min fair share over the spare (line minus measured packet) wire
// capacity of its constraints, capped by the flow's AI ramp, then
// scaled by its calibrated CC efficiency. Progressive filling: each
// round freezes the globally most-constrained flows and subtracts
// their share. The resulting per-queue arrival and drain rates feed
// the fluid integrators.
//
// The efficiency factor eta is what separates the fluid trajectory
// from an idealized fluid model: a CC does not necessarily use the
// capacity available to it (delay-based Swift backs off against its
// own queueing and sustains ~2/3 of a bottleneck; loss-based Cubic
// sustains nearly all of it). Rather than hard-code per-CC knowledge,
// eta is measured per flow: the achieved rate at demotion over the
// capacity available once the flow's own traffic has fully left the
// packet counters (after settleUntil, when the measurement is clean).
func (c *Controller) allocate(now units.Time, sec float64) {
	if len(c.flows) == 0 {
		return
	}
	mss := float64(c.net.Cfg.MSS)
	for _, ps := range c.portList {
		spare := float64(float64(ps.lineRate())/8) - ps.pktRate
		if spare < 0 {
			spare = 0
		}
		ps.capRem = spare
		ps.nact = 0
	}
	for _, f := range c.flows {
		f.frozen = false
		for _, ps := range f.cons {
			ps.nact++
		}
	}
	for unfrozen := len(c.flows); unfrozen > 0; {
		// Tightest rate any active flow can get this round.
		minRate := -1.0
		for _, f := range c.flows {
			if f.frozen {
				continue
			}
			r := f.cap(sec, mss)
			for _, ps := range f.cons {
				if share := ps.capRem / float64(ps.nact); share < r {
					r = share
				}
			}
			if minRate < 0 || r < minRate {
				minRate = r
			}
		}
		// Freeze every flow at that level (bottlenecked or ramp-capped).
		for _, f := range c.flows {
			if f.frozen {
				continue
			}
			r := f.cap(sec, mss)
			for _, ps := range f.cons {
				if share := ps.capRem / float64(ps.nact); share < r {
					r = share
				}
			}
			if r <= minRate*(1+1e-9) {
				f.frozen = true
				f.rate = r
				unfrozen--
				for _, ps := range f.cons {
					ps.capRem -= r
					if ps.capRem < 0 {
						ps.capRem = 0
					}
					ps.nact--
				}
			}
		}
	}
	// Efficiency calibration and application. potential is the rate the
	// flow COULD sustain: its allocation plus the slack left on its
	// tightest constraint.
	for _, f := range c.flows {
		slack := -1.0
		for _, ps := range f.cons {
			if slack < 0 || ps.capRem < slack {
				slack = ps.capRem
			}
		}
		potential := f.rate + slack
		if f.eta == 0 && potential > 0 && now >= f.settleUntil {
			f.eta = f.ramp0 / potential
			if f.eta > 1 {
				f.eta = 1
			}
			f.pot0 = potential
		}
		if f.eta > 0 {
			// Linear response around the calibration point: exactly the
			// achieved rate while the constraint environment is unchanged,
			// and an eta-scaled claim on capacity that frees up later.
			target := f.ramp0 + float64(f.eta*(potential-f.pot0))
			if target < 0 {
				target = 0
			}
			if f.rate > target {
				f.rate = target
			}
		}
		f.ramp = f.rate
	}
	// Push per-queue arrival/drain into the integrators.
	for _, qs := range c.queues {
		qs.fq.Arrival = 0
	}
	for _, f := range c.flows {
		for _, qs := range f.qss {
			qs.fq.Arrival += units.Rate(f.rate * 8)
		}
	}
	// A port's spare capacity serves all its fluid queues combined, so
	// split it by demand (arrival plus backlog over one epoch) rather
	// than granting each queue the full spare — otherwise two priorities
	// sharing an egress port double-count service and understate the
	// fluid occupancy charged to the MMU. A queue with no arrivals but
	// residual fluid still gets a share, so promotion leftovers drain.
	edt := c.cfg.EpochDt.Seconds()
	for _, ps := range c.portList {
		ps.demand = 0
	}
	for _, sm := range c.modelLst {
		for _, qs := range sm.qs {
			qs.ps.demand += float64(float64(qs.fq.Arrival)/8) + qs.fq.Len/edt
		}
	}
	for _, sm := range c.modelLst {
		for _, qs := range sm.qs {
			spare := float64(float64(qs.ps.lineRate())/8) - qs.ps.pktRate
			if spare < 0 {
				spare = 0
			}
			if qs.ps.demand > 0 {
				d := float64(float64(qs.fq.Arrival)/8) + qs.fq.Len/edt
				spare *= d / qs.ps.demand
			}
			qs.fq.Drain = units.Rate(spare * 8)
		}
	}
}
