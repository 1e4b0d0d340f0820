package device

import (
	"fmt"
	"math/rand"

	"abm/internal/obs"
	"abm/internal/obs/hist"
	"abm/internal/packet"
	"abm/internal/sim"
	"abm/internal/units"
)

// Endpoint is anything a link can deliver packets to: a switch or a host.
type Endpoint interface {
	ID() packet.NodeID
	Receive(pkt *packet.Packet)
}

// Link is a unidirectional wire with fixed propagation delay. The sender
// models serialization; the link only adds latency.
type Link struct {
	sim     *sim.Simulator
	delay   units.Time
	line    sim.DelayLine // the simulator's FIFO for this delay; unused with a mailbox
	dst     Endpoint
	deliver func(any) // prebound: delivery schedules without allocating
	box     *sim.Mailbox

	Delivered      int64
	DeliveredBytes units.ByteCount
}

// NewLink returns a link delivering to dst after delay. Deliveries ride
// the simulator's delay line for that delay: every link with the same
// delay shares it.
func NewLink(s *sim.Simulator, delay units.Time, dst Endpoint) *Link {
	l := newLink(s, delay, dst)
	l.line = s.DelayLine(delay)
	return l
}

func newLink(s *sim.Simulator, delay units.Time, dst Endpoint) *Link {
	if dst == nil {
		panic("device: link destination must not be nil")
	}
	if delay < 0 {
		panic("device: negative link delay")
	}
	l := &Link{sim: s, delay: delay, dst: dst}
	l.deliver = func(a any) { l.dst.Receive(a.(*packet.Packet)) }
	return l
}

// NewLinkVia returns a link whose deliveries route through a parallel-
// engine mailbox instead of the sender's event calendar: at the next
// window barrier the receive moves onto the destination shard's
// crossing line. The sharded topology builder uses it for every tier
// link so the delivery merge order is the same at any shard count; sim
// here is the SENDER's shard simulator (it stamps departure times). It
// takes no delay line of the sender's.
func NewLinkVia(s *sim.Simulator, delay units.Time, dst Endpoint, box *sim.Mailbox) *Link {
	l := newLink(s, delay, dst)
	if box == nil {
		panic("device: mailbox-routed link needs a mailbox")
	}
	if delay <= 0 {
		panic("device: mailbox-routed link needs positive delay (it is the lookahead)")
	}
	l.box = box
	return l
}

// Dst returns the link's destination endpoint.
func (l *Link) Dst() Endpoint { return l.dst }

// Send delivers pkt to the destination after the propagation delay.
// Any number of packets may be in flight at once, so the packet rides
// as the event argument rather than in link state.
func (l *Link) Send(pkt *packet.Packet) {
	l.Delivered++
	l.DeliveredBytes += pkt.Size()
	if l.box != nil {
		l.box.Post(l.sim.Now()+l.delay, l.deliver, pkt)
		return
	}
	l.sim.AfterLine(l.line, l.deliver, pkt)
}

// Router maps a packet to an egress port index on a given switch.
// Provided by the topology layer (ECMP lives there).
type Router func(sw *Switch, pkt *packet.Packet) int

// SwitchConfig parameterizes a shared-memory switch.
type SwitchConfig struct {
	ID            packet.NodeID
	NumPorts      int
	QueuesPerPort int        // number of priorities
	PortRate      units.Rate // uniform port bandwidth b

	// PortRates optionally overrides PortRate per port (mixed-rate
	// fabrics: host-facing ports vs uplinks). Entries <= 0 and ports
	// beyond the slice fall back to PortRate, which must still be set.
	PortRates []units.Rate

	// MSS is the payload of a full segment, the size the ports'
	// serialization ends are lined up for (see Serializer); zero
	// selects 1440, the hosts' default.
	MSS units.ByteCount

	MMU MMUConfig

	// NewScheduler creates the per-port scheduler; nil selects round
	// robin, the paper's default.
	NewScheduler func() Scheduler

	// EnableINT appends per-hop telemetry to transiting data packets
	// (needed by PowerTCP).
	EnableINT bool

	// RNG builds the switch's private random stream (IB's random-early
	// drop and the RED/ARED/PIE AQMs draw from it). The MMU calls it at
	// most once, on its first draw, so a switch whose policies never
	// draw never seeds a stream. nil falls back to the simulator's
	// shared source. The topology layer passes the constructor of a
	// stream derived from (seed, switch ID) so switch randomness is
	// independent of event interleaving and of the shard partition.
	RNG func() *rand.Rand

	// Obs is the telemetry sink for this switch's shard; nil disables
	// telemetry at zero hot-path cost (see internal/obs).
	Obs *obs.Sink
}

// Switch is an output-queued shared-memory switch.
type Switch struct {
	sim   *sim.Simulator
	id    packet.NodeID
	ports []Port
	// queues holds every queue of the switch contiguously, index
	// port*prios+prio; each Port's queues field is a view into it and
	// the MMU indexes it directly. Neither slice is ever reallocated, so
	// *Port and *Queue handed out by Port(i) and Queue(prio) stay valid
	// for the life of the switch.
	queues []Queue
	prios  int
	mmu    *MMU
	route  Router
	cfg    SwitchConfig

	statsTicker *sim.Ticker

	obsSink    *obs.Sink
	histQDelay *hist.Histogram

	RxPkts int64
	// RouteDrops counts packets discarded because the router returned a
	// negative port: the destination had no surviving next hop (a
	// routing black hole during link failures).
	RouteDrops int64
}

// NewSwitch builds a switch. The router must be set with SetRouter before
// traffic arrives; links are attached per port with ConnectPort.
func NewSwitch(s *sim.Simulator, cfg SwitchConfig) *Switch {
	if cfg.NumPorts <= 0 || cfg.QueuesPerPort <= 0 {
		panic(fmt.Sprintf("device: switch needs ports and queues, got %d/%d", cfg.NumPorts, cfg.QueuesPerPort))
	}
	if cfg.PortRate <= 0 {
		panic("device: switch port rate must be positive")
	}
	if cfg.MSS <= 0 {
		cfg.MSS = 1440
	}
	sw := &Switch{sim: s, id: cfg.ID, prios: cfg.QueuesPerPort, cfg: cfg}
	sw.ports = make([]Port, cfg.NumPorts)
	sw.queues = make([]Queue, cfg.NumPorts*sw.prios)
	for i := range sw.ports {
		rate := cfg.PortRate
		if i < len(cfg.PortRates) && cfg.PortRates[i] > 0 {
			rate = cfg.PortRates[i]
		}
		sw.ports[i].init(sw, i, rate, cfg.NewScheduler)
	}
	rng := cfg.RNG
	if rng == nil {
		rng = s.Rand
	}
	sw.obsSink = cfg.Obs
	sw.histQDelay = cfg.Obs.Hist(obs.HistQueueDelay)
	sw.mmu = newMMU(cfg.MMU, sw, rng, cfg.Obs)
	cfg.Obs.AddSource(sw)
	if iv := cfg.MMU.StatsInterval; iv > 0 {
		sw.statsTicker = s.NewTicker(iv, func() { sw.mmu.tick(s.Now()) })
	}
	return sw
}

// ID implements Endpoint.
func (sw *Switch) ID() packet.NodeID { return sw.id }

// MMU exposes the switch's memory-management unit.
func (sw *Switch) MMU() *MMU { return sw.mmu }

// Port returns port i.
func (sw *Switch) Port(i int) *Port { return &sw.ports[i] }

// NumPorts returns the port count.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// Prios returns the number of queues per port.
func (sw *Switch) Prios() int { return sw.prios }

// SetRouter installs the forwarding function.
func (sw *Switch) SetRouter(r Router) { sw.route = r }

// ConnectPort attaches the egress link of port i.
func (sw *Switch) ConnectPort(i int, l *Link) { sw.ports[i].link = l }

// RoutePort returns the egress port the installed router picks for pkt
// without enqueuing it. The topology layer uses it to walk the actual
// forwarding path (hop counting for RTT/FCT normalization).
func (sw *Switch) RoutePort(pkt *packet.Packet) int { return sw.route(sw, pkt) }

// Link returns the port's attached egress link (nil before ConnectPort).
func (p *Port) Link() *Link { return p.link }

// Stop cancels the periodic stats ticker (for dismantling topologies in
// tests).
func (sw *Switch) Stop() {
	if sw.statsTicker != nil {
		sw.statsTicker.Stop()
	}
}

// Receive implements Endpoint: route, classify, admit, transmit.
func (sw *Switch) Receive(pkt *packet.Packet) {
	sw.RxPkts++
	if sw.route == nil {
		panic(fmt.Sprintf("device: switch %d has no router", sw.id))
	}
	out := sw.route(sw, pkt)
	if out < 0 {
		// No route (every next hop toward the destination failed): the
		// switch is the drop point and thus the release point.
		sw.RouteDrops++
		sw.sim.FreePacket(pkt)
		return
	}
	if out >= len(sw.ports) {
		panic(fmt.Sprintf("device: switch %d routed flow %d to invalid port %d", sw.id, pkt.FlowID, out))
	}
	prio := int(pkt.Prio)
	if prio >= sw.prios {
		prio = sw.prios - 1
	}
	res := sw.mmu.Admit(out, prio, pkt)
	if res.Dropped() {
		// The MMU is the drop point and thus the release point: the
		// packet has no owner beyond this frame.
		sw.sim.FreePacket(pkt)
		return
	}
	sw.ports[out].maybeTransmit()
}

// TotalDrops sums drops across all queues.
func (sw *Switch) TotalDrops() int64 {
	var n int64
	for i := range sw.queues {
		n += sw.queues[i].TotalDrops()
	}
	return n
}

// AddCounts implements obs.Source: the switch's model/ counters are its
// queues' admission, drop, mark and trim counts plus its route drops.
func (sw *Switch) AddCounts(t *obs.Tally) {
	for i := range sw.queues {
		q := &sw.queues[i]
		t[obs.CtrAdmittedPkts] += q.EnqueuedPkts
		t[obs.CtrAdmittedBytes] += int64(q.EnqueuedBytes)
		t[obs.CtrDropThreshold] += q.DropsThreshold
		t[obs.CtrDropNoBuffer] += q.DropsNoBuffer
		t[obs.CtrDropAQM] += q.DropsAQM
		t[obs.CtrDropAFD] += q.DropsAFD
		t[obs.CtrDropDequeue] += q.DropsDequeue
		t[obs.CtrDropUnscheduled] += q.DropsUnscheduled
		t[obs.CtrECNMarked] += q.MarkedPkts
		t[obs.CtrTrimmed] += q.TrimmedPkts
	}
	t[obs.CtrDropNoRoute] += sw.RouteDrops
}

// Port is one egress port: per-priority queues, a scheduler, and the
// transmitter state machine.
type Port struct {
	sw     *Switch
	idx    int
	tx     Serializer // port bandwidth and its serialization lines
	queues []Queue    // view into sw.queues
	sched  Scheduler
	link   *Link

	// queued counts the packets held across the port's queues, so an
	// idle port is recognized without asking the scheduler.
	queued int

	busy bool
	// txPkt/txQ hold the single in-flight transmission (the port is
	// busy while it serializes).
	txPkt *packet.Packet
	txQ   *Queue

	TxPkts  int64
	TxBytes units.ByteCount
}

// init sets up port idx of sw in place (ports live in sw.ports).
func (p *Port) init(sw *Switch, idx int, rate units.Rate, newSched func() Scheduler) {
	*p = Port{sw: sw, idx: idx, tx: NewSerializer(sw.sim, rate, sw.cfg.MSS)}
	p.queues = sw.queues[idx*sw.prios : (idx+1)*sw.prios : (idx+1)*sw.prios]
	for i := range p.queues {
		p.queues[i] = Queue{Port: idx, Prio: i}
	}
	if newSched != nil {
		p.sched = newSched()
	} else {
		p.sched = &RoundRobin{}
	}
}

// Queue returns the queue of the given priority. The pointer stays
// valid for the life of the switch.
func (p *Port) Queue(prio int) *Queue { return &p.queues[prio] }

// Rate returns the port bandwidth.
func (p *Port) Rate() units.Rate { return p.tx.Rate() }

// SetRate changes the port bandwidth (link degradation/restoration).
// The new rate applies from the next transmission start; a packet
// already serializing finishes at the old rate. Callers must hold the
// fabric quiescent (serial execution or a window barrier).
func (p *Port) SetRate(r units.Rate) {
	if r <= 0 {
		panic("device: port rate must be positive")
	}
	p.tx.SetRate(r)
}

// Backlog returns the total bytes queued at this port.
func (p *Port) Backlog() units.ByteCount {
	var sum units.ByteCount
	for i := range p.queues {
		sum += p.queues[i].bytes
	}
	return sum
}

// maybeTransmit starts the transmitter if it is idle and a packet is
// queued.
func (p *Port) maybeTransmit() {
	if p.busy {
		return
	}
	for p.queued > 0 {
		q := p.sched.Next(p.queues)
		if q == nil {
			return
		}
		pkt := q.pop()
		p.queued--
		p.sw.mmu.release(pkt)
		if p.sw.histQDelay != nil {
			p.sw.histQDelay.Record(int64(p.sw.sim.Now() - pkt.EnqAt))
		}
		// Sojourn-based AQM (Codel) may discard at dequeue.
		if q.deqHook != nil {
			now := p.sw.sim.Now()
			if q.deqHook.OnDequeue(now-pkt.EnqAt, now) {
				q.DropsDequeue++
				if p.sw.obsSink.Enabled(obs.KindDequeue) {
					p.emitDequeue(pkt, q, obs.VerdictDropDequeue)
				}
				p.sw.sim.FreePacket(pkt)
				continue
			}
		}
		if p.sw.obsSink.Enabled(obs.KindDequeue) {
			p.emitDequeue(pkt, q, obs.VerdictTx)
		}
		p.transmit(pkt, q)
		return
	}
}

// emitDequeue traces one dequeue with the post-pop queue length and the
// packet's sojourn time. The caller has checked Enabled(KindDequeue).
func (p *Port) emitDequeue(pkt *packet.Packet, q *Queue, verdict uint8) {
	now := p.sw.sim.Now()
	p.sw.obsSink.Emit(obs.Event{
		At:      now,
		Kind:    obs.KindDequeue,
		Verdict: verdict,
		Node:    int32(p.sw.id),
		Port:    int16(p.idx),
		Prio:    int16(q.Prio),
		Flow:    pkt.FlowID,
		Seq:     pkt.Seq,
		Size:    int32(pkt.Size()),
		QLen:    q.bytes,
		Aux:     int64(now - pkt.EnqAt),
	})
}

func (p *Port) transmit(pkt *packet.Packet, q *Queue) {
	p.busy = true
	p.txPkt, p.txQ = pkt, q
	p.tx.Start(pkt, portTxDone, p)
}

// portTxDone is the transmit-completion event of every port: a
// package-level func with the port as its argument, so scheduling it
// allocates nothing and dispatching it needs no per-port closure.
func portTxDone(a any) { a.(*Port).finishTx() }

// finishTx completes the in-flight transmission: stamp INT, hand the
// packet to the egress link, and restart the transmitter.
func (p *Port) finishTx() {
	pkt, q := p.txPkt, p.txQ
	p.txPkt, p.txQ = nil, nil
	p.TxPkts++
	p.TxBytes += pkt.Size()
	if p.sw.cfg.EnableINT && !pkt.Is(packet.FlagACK) {
		pkt.Hops = append(pkt.Hops, packet.HopINT{
			QLen:    q.bytes,
			TxBytes: p.TxBytes,
			TS:      p.sw.sim.Now(),
			Rate:    p.tx.Rate(),
		})
	}
	if p.link == nil {
		panic(fmt.Sprintf("device: switch %d port %d has no link", p.sw.id, p.idx))
	}
	p.link.Send(pkt)
	p.busy = false
	p.maybeTransmit()
}
