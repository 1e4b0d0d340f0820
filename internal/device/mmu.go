package device

import (
	"fmt"
	"math/rand"

	"abm/internal/aqm"
	"abm/internal/bm"
	"abm/internal/obs"
	"abm/internal/obs/hist"
	"abm/internal/packet"
	"abm/internal/units"
)

// DrainRateMode selects how the MMU estimates a queue's normalized drain
// rate mu/b for the BM context.
type DrainRateMode uint8

const (
	// DrainRateShare derives mu/b from the scheduler: the queue's
	// bandwidth share among currently active queues at the port, counting
	// the queue itself (the §3.4 example: two congested queues under
	// round robin -> 0.5). This is the default.
	DrainRateShare DrainRateMode = iota
	// DrainRateMeasured uses bytes dequeued during the last stats
	// interval divided by interval*portRate, falling back to the share
	// estimate for queues that saw no service.
	DrainRateMeasured
)

// AdmitResult reports what the MMU did with a packet.
type AdmitResult uint8

// Admission outcomes.
const (
	Admitted AdmitResult = iota
	AdmittedMarked
	DroppedThreshold
	DroppedNoBuffer
	DroppedAQM
	DroppedAFD
)

// Dropped reports whether the result is any drop.
func (r AdmitResult) Dropped() bool { return r >= DroppedThreshold }

// MMUConfig parameterizes the memory-management unit.
type MMUConfig struct {
	BufferSize units.ByteCount // shared pool B
	Headroom   units.ByteCount // reserved pool for headroom-eligible packets

	Alphas           []float64 // per-priority alpha_p; missing entries get 0.5
	AlphaUnscheduled float64   // alpha for unscheduled packets (§3.3; paper uses 64)

	BM         bm.Policy
	AQMFactory aqm.Factory // per-queue AQM; nil means none

	// CongestedFactor is the fraction of the threshold above which a
	// queue counts as congested (paper: 0.9).
	CongestedFactor float64

	// DropControl subjects header-only packets (pure ACKs, trimmed
	// headers) to the BM threshold like data. By default they bypass the
	// threshold and are dropped only when the pool itself is full,
	// mirroring switches' special handling of sub-cell packets; without
	// this, tail-ACK losses convert into spurious retransmission
	// timeouts that drown the FCT signal the paper measures.
	DropControl bool

	// StatsInterval is the period at which n_p and mu/b are refreshed
	// (paper: once per RTT). Zero selects instant mode, where they are
	// recomputed on every admission — exact but slower, used in tests
	// and fluid-model validation.
	StatsInterval units.Time

	DrainRate DrainRateMode
}

// MMU is the memory-management unit of one switch: it owns the shared
// buffer accounting and runs hierarchical admission control.
type MMU struct {
	cfg MMUConfig
	sw  *Switch

	// queues is the switch's contiguous queue array (index
	// port*prios+prio), shared with the ports' views.
	queues []Queue
	prios  int

	// What the admission path needs to know about the policy, resolved
	// once at construction instead of per packet: the optional bm
	// interfaces BM implements (nil when it does not) and alpha_p per
	// priority.
	dropper      bm.Dropper
	flowAware    bm.FlowAware
	headroomElig bm.HeadroomEligible
	ticker       bm.Ticker
	alphas       []float64

	used         units.ByteCount // shared-pool occupancy
	headroomUsed units.ByteCount

	// fluid is the occupancy the hybrid engine's per-switch integrator
	// attributes to fluid-mode flows. It participates in every admission
	// decision (thresholds see it as used buffer, as do the fits checks)
	// but holds no packets, so the queue-sum invariant excludes it. Zero
	// whenever the hybrid engine is off.
	fluid units.ByteCount

	// Cached statistics (periodic mode).
	nCongested []int     // per priority
	normDrain  []float64 // indexed like queues

	// Per-admission scratch space, reused so the hot path performs no
	// allocation. Policies receive pointers to these for the duration
	// of one call and must not retain them (bm.Policy contract).
	bmCtx     bm.Ctx
	aqmCtx    aqm.Ctx // untouched when the switch has no AQM
	activeSet []int

	rng *rand.Rand

	// Telemetry. The sink is nil when telemetry is off; the admission
	// path's counts live in the queues (see Switch.AddCounts).
	obsSink      *obs.Sink
	histHeadroom *hist.Histogram
}

func newMMU(cfg MMUConfig, sw *Switch, rng *rand.Rand, sink *obs.Sink) *MMU {
	if cfg.BufferSize <= 0 {
		panic("device: MMU buffer size must be positive")
	}
	if cfg.BM == nil {
		cfg.BM = bm.DT{}
	}
	if cfg.CongestedFactor <= 0 {
		cfg.CongestedFactor = 0.9
	}
	if cfg.AlphaUnscheduled <= 0 {
		cfg.AlphaUnscheduled = 64
	}
	m := &MMU{cfg: cfg, sw: sw, queues: sw.queues, prios: sw.prios, rng: rng, obsSink: sink}
	m.dropper, _ = cfg.BM.(bm.Dropper)
	m.flowAware, _ = cfg.BM.(bm.FlowAware)
	m.headroomElig, _ = cfg.BM.(bm.HeadroomEligible)
	m.ticker, _ = cfg.BM.(bm.Ticker)
	m.alphas = make([]float64, sw.prios)
	for i := range m.alphas {
		m.alphas[i] = 0.5
		if i < len(cfg.Alphas) && cfg.Alphas[i] > 0 {
			m.alphas[i] = cfg.Alphas[i]
		}
	}
	m.histHeadroom = sink.Hist(obs.HistAdmitHeadroom)
	m.normDrain = make([]float64, len(m.queues))
	for i := range m.normDrain {
		m.normDrain[i] = 1
	}
	if cfg.AQMFactory != nil {
		for i := range m.queues {
			q := &m.queues[i]
			q.aqm = cfg.AQMFactory()
			q.deqHook, _ = q.aqm.(aqm.DequeueHook)
		}
	}
	m.nCongested = make([]int, sw.prios)
	if b, ok := cfg.BM.(bm.Binder); ok {
		b.Bind(m)
	}
	if ap, ok := cfg.BM.(*bm.Approx); ok {
		ap.SetAlphas(append([]float64(nil), m.alphas...))
	}
	return m
}

// Used returns the shared-pool occupancy (excluding headroom).
func (m *MMU) Used() units.ByteCount { return m.used }

// TotalUsed returns shared-pool plus headroom plus fluid occupancy.
func (m *MMU) TotalUsed() units.ByteCount { return m.used + m.headroomUsed + m.fluid }

// SetFluidBytes sets the fluid-mode occupancy the admission machinery
// charges against the shared buffer (hybrid engine integration epochs).
func (m *MMU) SetFluidBytes(b units.ByteCount) {
	if b < 0 {
		b = 0
	}
	m.fluid = b
}

// FluidBytes returns the current fluid-mode occupancy.
func (m *MMU) FluidBytes() units.ByteCount { return m.fluid }

// HeadroomUsed returns the headroom-pool occupancy.
func (m *MMU) HeadroomUsed() units.ByteCount { return m.headroomUsed }

// --- bm.Stats implementation -------------------------------------------

// BufferSize implements bm.Stats.
func (m *MMU) BufferSize() units.ByteCount { return m.cfg.BufferSize }

// BufferUsed implements bm.Stats.
func (m *MMU) BufferUsed() units.ByteCount { return m.used + m.fluid }

// Ports implements bm.Stats.
func (m *MMU) Ports() int { return len(m.sw.ports) }

// Prios implements bm.Stats.
func (m *MMU) Prios() int { return m.prios }

// PortRate implements bm.Stats. Mixed-rate switches (SwitchConfig.
// PortRates) report port 0 — the host-facing side on leaf switches —
// as the nominal b the stateful policies normalize against.
func (m *MMU) PortRate() units.Rate { return m.sw.ports[0].Rate() }

// QueueLen implements bm.Stats.
func (m *MMU) QueueLen(port, prio int) units.ByteCount {
	return m.queues[port*m.prios+prio].bytes
}

// NormDrain implements bm.Stats, returning the current estimate.
func (m *MMU) NormDrain(port, prio int) float64 {
	if m.cfg.StatsInterval == 0 {
		return m.instantNormDrain(port, prio)
	}
	return m.normDrain[port*m.prios+prio]
}

// CongestedSamePrio implements bm.Stats, returning n_p (at least 1).
func (m *MMU) CongestedSamePrio(prio int) int {
	var n int
	if m.cfg.StatsInterval == 0 {
		n = m.countCongested(prio)
	} else {
		n = m.nCongested[prio]
	}
	if n < 1 {
		n = 1
	}
	return n
}

// -------------------------------------------------------------------------

// instantNormDrain computes the share-based estimate from live queue
// state. The active set is built in reused scratch space (NormShare
// only reads it).
func (m *MMU) instantNormDrain(port, prio int) float64 {
	p := &m.sw.ports[port]
	active := m.activeSet[:0]
	for i := range p.queues {
		if p.queues[i].bytes > 0 || i == prio {
			active = append(active, i)
		}
	}
	m.activeSet = active
	return NormShare(p.sched, active, prio)
}

// countCongested counts queues of the given priority whose occupancy is
// at or above CongestedFactor of their last threshold. It compares the
// cached float mirrors (bytesF, congestedAtF) maintained on enqueue/
// dequeue and threshold update, so the per-admission scan performs no
// int→float conversions or multiplies.
func (m *MMU) countCongested(prio int) int {
	n := 0
	for i := prio; i < len(m.queues); i += m.prios {
		q := &m.queues[i]
		if q.bytes > 0 && q.lastThreshold > 0 && q.bytesF >= q.congestedAtF {
			n++
		}
	}
	return n
}

// setThreshold records a freshly computed BM threshold on the queue,
// keeping the cached congestion cutoff in sync.
func (m *MMU) setThreshold(q *Queue, thr units.ByteCount) {
	q.lastThreshold = thr
	q.congestedAtF = m.cfg.CongestedFactor * float64(thr)
}

// tick refreshes the cached statistics: thresholds (for congestion
// detection), congested counts, and drain-rate estimates. Runs every
// StatsInterval in periodic mode.
func (m *MMU) tick(now units.Time) {
	// Refresh drain rates first: thresholds depend on them.
	for i := range m.queues {
		q := &m.queues[i]
		var share float64
		if m.cfg.DrainRate == DrainRateMeasured && q.dequeuedInTick > 0 {
			rate := units.RateOf(q.dequeuedInTick, m.cfg.StatsInterval)
			share = float64(rate) / float64(m.sw.ports[q.Port].Rate())
			if share > 1 {
				share = 1
			}
		} else {
			share = m.instantNormDrain(q.Port, q.Prio)
		}
		m.normDrain[i] = share
		q.dequeuedInTick = 0
	}
	// Recompute thresholds with the previous congested counts, then
	// recount. Starting from the previous counts breaks the circular
	// dependency the same way periodic hardware measurement does.
	for i := range m.queues {
		q := &m.queues[i]
		ctx := m.ctx(q.Port, q.Prio, q, nil)
		m.setThreshold(q, m.cfg.BM.Threshold(ctx))
	}
	for prio := 0; prio < m.prios; prio++ {
		m.nCongested[prio] = m.countCongested(prio)
	}
	if m.ticker != nil {
		m.ticker.Tick(now)
	}
}

// ctx builds the BM context for a queue in the MMU's scratch space;
// pkt may be nil for stats-only threshold computation. The returned
// pointer is valid until the next ctx call.
func (m *MMU) ctx(port, prio int, q *Queue, pkt *packet.Packet) *bm.Ctx {
	// Field-wise assignment rather than a struct literal: this runs per
	// admission decision, and rebuilding the whole Ctx through a
	// temporary costs a measurable block copy on the hot path.
	c := &m.bmCtx
	c.Total = m.cfg.BufferSize
	c.Occupied = m.used + m.fluid
	c.QueueLen = q.bytes
	c.Port = port
	c.Prio = prio
	c.Alpha = m.alphas[prio]
	c.AlphaUnscheduled = m.cfg.AlphaUnscheduled
	c.NormDrain = m.NormDrain(port, prio)
	c.CongestedSamePrio = m.CongestedSamePrio(prio)
	c.Now = m.sw.sim.Now()
	if pkt != nil {
		c.Unscheduled = pkt.Is(packet.FlagUnscheduled)
		c.FlowID = pkt.FlowID
		c.PacketSize = pkt.Size()
	} else {
		c.Unscheduled = false
		c.FlowID = 0
		c.PacketSize = 0
	}
	return c
}

// headroomEligible decides whether pkt may be charged to the headroom
// pool when the shared pool rejects it.
func (m *MMU) headroomEligible(ctx *bm.Ctx) bool {
	if m.cfg.Headroom <= 0 {
		return false
	}
	if m.headroomElig != nil {
		return m.headroomElig.UseHeadroom(ctx)
	}
	return ctx.Unscheduled
}

// Admit runs the full hierarchical admission check for pkt arriving at
// (port, prio) and, on success, enqueues it.
func (m *MMU) Admit(port, prio int, pkt *packet.Packet) AdmitResult {
	q := &m.queues[port*m.prios+prio]
	ctx := m.ctx(port, prio, q, pkt)
	traced := m.obsSink.Enabled(obs.KindAdmit)

	// Stage 0: AFD-style early drop (IB).
	if m.dropper != nil && m.dropper.ShouldDrop(ctx, m.rng) {
		q.DropsAFD++
		m.notifyDrop(q, ctx)
		if traced {
			// No threshold was computed on this path; trace the queue's
			// last one.
			m.emitAdmit(ctx, pkt, obs.VerdictDropAFD, q.lastThreshold)
		}
		return DroppedAFD
	}

	// Stage 1: buffer-management threshold (Ψ).
	thr := m.cfg.BM.Threshold(ctx)
	m.setThreshold(q, thr)
	// Headroom left under the Eq. 9 threshold before this packet; at-
	// or-past-threshold decisions land in the histogram's <=0 bucket.
	m.histHeadroom.Record(int64(thr) - int64(q.bytes))
	size := pkt.Size()
	fitsThreshold := q.bytes+size <= thr
	if pkt.Payload == 0 && !m.cfg.DropControl {
		fitsThreshold = true
	}
	fitsBuffer := m.used+m.fluid+size <= m.cfg.BufferSize

	useHeadroom := false
	if !fitsThreshold || !fitsBuffer {
		if m.headroomEligible(ctx) && m.headroomUsed+size <= m.cfg.Headroom {
			useHeadroom = true
		} else {
			if !fitsBuffer {
				q.DropsNoBuffer++
				m.notifyDrop(q, ctx)
				if traced {
					m.emitAdmit(ctx, pkt, obs.VerdictDropNoBuffer, thr)
				}
				return DroppedNoBuffer
			}
			q.DropsThreshold++
			m.notifyDrop(q, ctx)
			if traced {
				m.emitAdmit(ctx, pkt, obs.VerdictDropThreshold, thr)
			}
			return DroppedThreshold
		}
	}

	// Stage 2: AQM verdict (Φ). A switch built without an AQM has no
	// verdict to ask for: every packet past stage 1 is enqueued.
	decision := aqm.Enqueue
	if q.aqm != nil {
		// Field by field, as ctx fills bmCtx: a composite literal is
		// built in a temporary and block-copied into the scratch.
		c := &m.aqmCtx
		c.QueueLen = q.bytes
		c.PacketSize = size
		c.DrainRate = m.drainRateAbs(port, prio)
		c.ECNCapable = pkt.Is(packet.FlagECT)
		c.Now = m.sw.sim.Now()
		decision = q.aqm.OnArrival(c, m.rng)
	}

	switch decision {
	case aqm.Drop:
		q.DropsAQM++
		m.notifyDrop(q, ctx)
		if traced {
			m.emitAdmit(ctx, pkt, obs.VerdictDropAQM, thr)
		}
		return DroppedAQM
	case aqm.Trim:
		pkt.Trim()
		size = pkt.Size()
		q.TrimmedPkts++
	case aqm.Mark:
		pkt.Set(packet.FlagCE)
		q.MarkedPkts++
		if m.obsSink.Enabled(obs.KindMark) {
			m.emitQueueEvent(obs.KindMark, ctx, pkt, q.bytes)
		}
	}

	// Charge and enqueue.
	if useHeadroom {
		m.headroomUsed += size
		pkt.HeadroomCharged = true
	} else {
		m.used += size
		pkt.HeadroomCharged = false
	}
	q.push(pkt, m.sw.sim.Now())
	m.sw.ports[port].queued++
	if m.flowAware != nil {
		m.flowAware.OnAdmit(ctx)
	}
	verdict := obs.VerdictAdmit
	result := Admitted
	if decision == aqm.Mark {
		verdict, result = obs.VerdictAdmitMark, AdmittedMarked
	}
	if traced {
		m.emitAdmit(ctx, pkt, verdict, thr)
	}
	if m.obsSink.Enabled(obs.KindEnqueue) {
		m.emitQueueEvent(obs.KindEnqueue, ctx, pkt, q.bytes)
	}
	return result
}

// emitAdmit traces one admission decision with its Eq. 9 context. The
// caller has checked Enabled(KindAdmit); ctx still holds the pre-
// decision queue state.
func (m *MMU) emitAdmit(ctx *bm.Ctx, pkt *packet.Packet, verdict uint8, thr units.ByteCount) {
	m.obsSink.Emit(obs.Event{
		At:      ctx.Now,
		Kind:    obs.KindAdmit,
		Verdict: verdict,
		Unsched: ctx.Unscheduled,
		Node:    int32(m.sw.id),
		Port:    int16(ctx.Port),
		Prio:    int16(ctx.Prio),
		Flow:    pkt.FlowID,
		Seq:     pkt.Seq,
		Size:    int32(pkt.Size()),
		QLen:    ctx.QueueLen,
		Free:    m.cfg.BufferSize - ctx.Occupied,
		Thresh:  thr,
		Alpha:   ctx.Alpha,
		MuB:     ctx.NormDrain,
		NCong:   int32(ctx.CongestedSamePrio),
	})
}

// emitQueueEvent traces an enqueue or mark with the queue length after
// the operation. The caller has checked Enabled(kind).
func (m *MMU) emitQueueEvent(kind obs.Kind, ctx *bm.Ctx, pkt *packet.Packet, qlen units.ByteCount) {
	m.obsSink.Emit(obs.Event{
		At:   m.sw.sim.Now(),
		Kind: kind,
		Node: int32(m.sw.id),
		Port: int16(ctx.Port),
		Prio: int16(ctx.Prio),
		Flow: pkt.FlowID,
		Seq:  pkt.Seq,
		Size: int32(pkt.Size()),
		QLen: qlen,
	})
}

func (m *MMU) notifyDrop(q *Queue, ctx *bm.Ctx) {
	if ctx.Unscheduled {
		q.DropsUnscheduled++
	}
	if m.flowAware != nil {
		m.flowAware.OnDrop(ctx)
	}
}

// release returns a dequeued packet's bytes to the right pool.
func (m *MMU) release(pkt *packet.Packet) {
	size := pkt.Size()
	if pkt.HeadroomCharged {
		m.headroomUsed -= size
		if m.headroomUsed < 0 {
			panic("device: headroom accounting underflow")
		}
		return
	}
	m.used -= size
	if m.used < 0 {
		panic("device: buffer accounting underflow")
	}
}

// drainRateAbs converts the normalized estimate into an absolute rate
// for the AQM context.
func (m *MMU) drainRateAbs(port, prio int) units.Rate {
	return units.Rate(float64(m.sw.ports[port].Rate()) * m.NormDrain(port, prio))
}

// checkInvariants panics if the MMU accounting disagrees with the sum of
// queue occupancies. Called from tests.
func (m *MMU) checkInvariants() {
	var sum units.ByteCount
	for i := range m.sw.ports {
		p := &m.sw.ports[i]
		pkts := 0
		for j := range p.queues {
			sum += p.queues[j].bytes
			pkts += p.queues[j].Len()
		}
		if pkts != p.queued {
			panic(fmt.Sprintf("device: port %d counts %d queued packets, its queues hold %d", i, p.queued, pkts))
		}
	}
	if sum != m.used+m.headroomUsed {
		panic(fmt.Sprintf("device: queue sum %v != pools %v+%v", sum, m.used, m.headroomUsed))
	}
	if m.used > m.cfg.BufferSize {
		panic(fmt.Sprintf("device: shared pool %v over capacity %v", m.used, m.cfg.BufferSize))
	}
	if m.headroomUsed > m.cfg.Headroom {
		panic(fmt.Sprintf("device: headroom %v over capacity %v", m.headroomUsed, m.cfg.Headroom))
	}
}
