// Package transport implements the host byte-stream transport the
// paper's workloads run over: a TCP-like reliable sender/receiver pair
// with cumulative ACKs, duplicate-ACK fast retransmit, NewReno-style
// recovery, RFC 6298 retransmission timeouts (minRTO = 10ms, §4.1),
// per-packet ECN echo for DCTCP, telemetry echo for PowerTCP, and
// first-RTT "unscheduled" tagging for ABM (§3.3).
package transport

import (
	"fmt"

	"abm/internal/cc"
	"abm/internal/obs"
	"abm/internal/packet"
	"abm/internal/sim"
	"abm/internal/units"
)

// Config parameterizes one flow's transport.
type Config struct {
	MSS             units.ByteCount // payload bytes per segment
	MinRTO          units.Time
	MaxRTO          units.Time
	DupAckThreshold int

	// UnscheduledBytes caps how much of the flow's head is tagged
	// unscheduled; the tag also requires that no ACK has arrived yet
	// (i.e. the segment really is a first-RTT packet).
	UnscheduledBytes units.ByteCount

	Prio uint8

	// Recovery is the tally the sender's loss-recovery events add to;
	// a host hands every sender it starts its own, so the counts
	// outlive the flows. Nil gives the sender a private one.
	Recovery *Recovery

	// Obs is the telemetry sink of the sender's shard; nil disables
	// telemetry (see internal/obs).
	Obs *obs.Sink
}

// Recovery counts loss-recovery events: retransmission timeouts fired
// and fast retransmits entered. Each is also one congestion-window cut.
type Recovery struct {
	Timeouts    int64
	FastRetrans int64
}

func (c *Config) fillDefaults() {
	if c.MSS <= 0 {
		c.MSS = 1440
	}
	if c.MinRTO <= 0 {
		c.MinRTO = 10 * units.Millisecond
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 320 * units.Millisecond
	}
	if c.DupAckThreshold <= 0 {
		c.DupAckThreshold = 3
	}
}

// Sender is the sending half of a flow.
type Sender struct {
	sim *sim.Simulator
	out func(*packet.Packet) // host NIC enqueue
	cfg Config
	alg cc.Algorithm

	FlowID uint64
	Src    packet.NodeID
	Dst    packet.NodeID
	Size   units.ByteCount

	StartedAt  units.Time
	FinishedAt units.Time
	finished   bool
	onComplete func(now units.Time)

	sndUna int64
	sndNxt int64

	dupAcks    int
	inRecovery bool
	recover    int64

	// Hybrid engine state. While fluid is set the per-packet machinery
	// is torn down: no sends, no timers; OnAck still runs bookkeeping
	// for packets that were in flight at demotion. lastDisturb is the
	// time of the most recent congestion signal (recovery entry, RTO,
	// ECN mark) in either mode; disturbed latches a signal that arrived
	// while fluid, which forces promotion.
	fluid       bool
	disturbed   bool
	lastDisturb units.Time

	srtt, rttvar units.Time
	rto          units.Time
	rtoBackoff   uint
	rtoTimer     sim.Timer // re-armed on every packet and ACK, rarely fires
	pacingTimer  sim.Event
	pacingNext   units.Time

	// Prebound pacing callback: created once so arming the pacing timer
	// never allocates a closure.
	pacingFn func()

	// rec counts loss-recovery events; it is shared with the other
	// senders of the host that started this one (see Config.Recovery).
	// The host's NIC counts the packets.
	rec *Recovery

	obsSink *obs.Sink // nil when telemetry is off
}

// NewSender creates a flow sender. The congestion-control algorithm must
// already be initialized (cc.Algorithm.Init). out enqueues packets into
// the host NIC; onComplete fires when every byte has been cumulatively
// acknowledged.
func NewSender(s *sim.Simulator, cfg Config, alg cc.Algorithm,
	flowID uint64, src, dst packet.NodeID, size units.ByteCount,
	out func(*packet.Packet), onComplete func(now units.Time)) *Sender {
	if size <= 0 {
		panic(fmt.Sprintf("transport: flow %d has size %v", flowID, size))
	}
	cfg.fillDefaults()
	sn := &Sender{
		sim: s, out: out, cfg: cfg, alg: alg,
		FlowID: flowID, Src: src, Dst: dst, Size: size,
		onComplete: onComplete,
		rto:        cfg.MinRTO,
		rec:        cfg.Recovery,
		obsSink:    cfg.Obs,
	}
	if sn.rec == nil {
		sn.rec = new(Recovery)
	}
	sn.rtoTimer.Init(s, sn.onRTO)
	sn.pacingFn = func() { sn.trySend() }
	return sn
}

// Start begins transmission at the current simulated time.
func (sn *Sender) Start() {
	sn.StartedAt = sn.sim.Now()
	sn.pacingNext = sn.sim.Now()
	sn.trySend()
}

// Finished reports whether every byte has been acknowledged.
func (sn *Sender) Finished() bool { return sn.finished }

// FCT returns the flow completion time; it panics if the flow has not
// finished.
func (sn *Sender) FCT() units.Time {
	if !sn.finished {
		panic(fmt.Sprintf("transport: flow %d not finished", sn.FlowID))
	}
	return sn.FinishedAt - sn.StartedAt
}

// inflight returns the unacknowledged bytes.
func (sn *Sender) inflight() units.ByteCount {
	return units.ByteCount(sn.sndNxt - sn.sndUna)
}

// trySend emits new segments while the window and pacing allow.
func (sn *Sender) trySend() {
	if sn.finished || sn.fluid {
		return
	}
	rate := sn.alg.PacingRate()
	for int64(sn.Size) > sn.sndNxt {
		payload := units.MinBytes(sn.cfg.MSS, sn.Size-units.ByteCount(sn.sndNxt))
		if sn.inflight()+payload > sn.alg.Window() {
			return // window-limited; ACKs will reopen
		}
		now := sn.sim.Now()
		if rate > 0 && now < sn.pacingNext {
			sn.armPacing(sn.pacingNext)
			return
		}
		sn.emit(sn.sndNxt, payload, false)
		sn.sndNxt += int64(payload)
		if rate > 0 {
			next := units.MaxTime(now, sn.pacingNext) + rate.TxTime(payload+packet.HeaderBytes)
			sn.pacingNext = next
		}
	}
}

func (sn *Sender) armPacing(at units.Time) {
	if sn.pacingTimer.Scheduled() {
		return
	}
	sn.pacingTimer = sn.sim.At(at, sn.pacingFn)
}

// emit builds and sends one segment. The packet comes from the
// simulator's free list; whoever consumes it (MMU drop, receiver,
// peer's ACK path) releases it.
func (sn *Sender) emit(seq int64, payload units.ByteCount, retrans bool) {
	pkt := sn.sim.NewPacket()
	pkt.FlowID = sn.FlowID
	pkt.Src = sn.Src
	pkt.Dst = sn.Dst
	pkt.Prio = sn.cfg.Prio
	pkt.Seq = seq
	pkt.Payload = payload
	pkt.SentAt = sn.sim.Now()
	if sn.alg.UsesECN() {
		pkt.Set(packet.FlagECT)
	}
	if retrans {
		pkt.Set(packet.FlagRetransmit)
	} else if sn.sndUna == 0 && seq < int64(sn.cfg.UnscheduledBytes) {
		// First-RTT packet: no feedback has arrived and the byte offset is
		// within the unscheduled budget.
		pkt.Set(packet.FlagUnscheduled)
	}
	if seq+int64(payload) >= int64(sn.Size) {
		pkt.Set(packet.FlagFIN)
	}
	sn.out(pkt)
	sn.armRTO()
}

// OnAck processes an incoming acknowledgment.
func (sn *Sender) OnAck(pkt *packet.Packet) {
	if sn.finished {
		return
	}
	now := sn.sim.Now()
	ackNo := pkt.AckNo
	if sn.fluid {
		// Fluid mode: the integrator owns delivery; ACKs for packets
		// that were in flight at demotion only update bookkeeping. A
		// congestion signal here means the demotion criteria misjudged
		// the path, so latch it and let the controller promote.
		if ackNo > sn.sndUna {
			sn.sndUna = ackNo
			sn.dupAcks = 0
			if pkt.EchoTS > 0 {
				sn.updateRTO(now - pkt.EchoTS)
			}
			if pkt.Is(packet.FlagECE) {
				sn.disturb(now)
			}
		} else if sn.inflight() > 0 {
			sn.dupAcks++
			if sn.dupAcks >= sn.cfg.DupAckThreshold {
				sn.disturb(now)
			}
		}
		return
	}
	if ackNo > sn.sndUna {
		acked := units.ByteCount(ackNo - sn.sndUna)
		sn.sndUna = ackNo
		sn.dupAcks = 0
		var rtt units.Time
		if pkt.EchoTS > 0 {
			rtt = now - pkt.EchoTS
			sn.updateRTO(rtt)
		}
		if pkt.Is(packet.FlagECE) {
			sn.lastDisturb = now
		}
		sn.alg.OnAck(cc.AckEvent{
			Now:        now,
			AckedBytes: acked,
			RTT:        rtt,
			ECNMarked:  pkt.Is(packet.FlagECE),
			INT:        pkt.AckINT,
		})
		if sn.inRecovery {
			if ackNo >= sn.recover {
				sn.inRecovery = false
			} else {
				// Partial ACK: the next hole is at the new sndUna.
				sn.retransmitHead()
			}
		}
		sn.rtoBackoff = 0
		if sn.sndUna >= int64(sn.Size) {
			sn.complete(now)
			return
		}
		sn.armRTO()
		sn.trySend()
		return
	}
	// Duplicate ACK.
	if sn.inflight() == 0 {
		return
	}
	sn.dupAcks++
	if sn.dupAcks == sn.cfg.DupAckThreshold && !sn.inRecovery {
		sn.inRecovery = true
		sn.recover = sn.sndNxt
		sn.lastDisturb = now
		sn.alg.OnRecovery(now)
		sn.rec.FastRetrans++
		if sn.obsSink.Enabled(obs.KindCwndCut) {
			sn.obsSink.Emit(obs.Event{
				At:   now,
				Kind: obs.KindCwndCut,
				Node: int32(sn.Src),
				Flow: sn.FlowID,
				QLen: sn.alg.Window(),
			})
		}
		sn.retransmitHead()
	}
	sn.trySend()
}

// retransmitHead resends the segment at sndUna.
func (sn *Sender) retransmitHead() {
	payload := units.MinBytes(sn.cfg.MSS, sn.Size-units.ByteCount(sn.sndUna))
	sn.emit(sn.sndUna, payload, true)
}

func (sn *Sender) armRTO() {
	d := sn.rto << sn.rtoBackoff
	if d > sn.cfg.MaxRTO {
		d = sn.cfg.MaxRTO
	}
	sn.rtoTimer.Arm(d)
}

func (sn *Sender) onRTO() {
	if sn.finished || sn.fluid {
		return
	}
	sn.rec.Timeouts++
	sn.lastDisturb = sn.sim.Now()
	sn.alg.OnTimeout(sn.sim.Now())
	if sn.obsSink.Enabled(obs.KindTimeout) {
		// Aux carries the timeout duration that just fired (the armRTO
		// clamp applied to the pre-backoff-bump state).
		d := sn.rto << sn.rtoBackoff
		if d > sn.cfg.MaxRTO {
			d = sn.cfg.MaxRTO
		}
		sn.obsSink.Emit(obs.Event{
			At:   sn.sim.Now(),
			Kind: obs.KindTimeout,
			Node: int32(sn.Src),
			Flow: sn.FlowID,
			Seq:  sn.sndUna,
			Aux:  int64(d),
			QLen: sn.alg.Window(),
		})
	}
	sn.inRecovery = false
	sn.dupAcks = 0
	// Go-back-N: rewind and resend from the first unacknowledged byte.
	sn.sndNxt = sn.sndUna
	sn.pacingNext = sn.sim.Now()
	if sn.rtoBackoff < 16 {
		sn.rtoBackoff++
	}
	sn.retransmitHead()
	sn.sndNxt = sn.sndUna + int64(units.MinBytes(sn.cfg.MSS, sn.Size-units.ByteCount(sn.sndUna)))
}

// updateRTO applies the RFC 6298 estimator.
func (sn *Sender) updateRTO(rtt units.Time) {
	if sn.srtt == 0 {
		sn.srtt = rtt
		sn.rttvar = rtt / 2
	} else {
		diff := sn.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		sn.rttvar = (3*sn.rttvar + diff) / 4
		sn.srtt = (7*sn.srtt + rtt) / 8
	}
	sn.rto = sn.srtt + 4*sn.rttvar
	if sn.rto < sn.cfg.MinRTO {
		sn.rto = sn.cfg.MinRTO
	}
	if sn.rto > sn.cfg.MaxRTO {
		sn.rto = sn.cfg.MaxRTO
	}
}

// disturb records a congestion signal; while fluid it also latches the
// promotion trigger.
func (sn *Sender) disturb(now units.Time) {
	sn.lastDisturb = now
	if sn.fluid {
		sn.disturbed = true
	}
}

// Demote switches the sender into fluid mode: both timers are torn down
// and every send path is gated off. The caller (internal/hybrid) takes over
// delivery accounting from sndNxt onward.
func (sn *Sender) Demote() {
	if sn.fluid || sn.finished {
		return
	}
	sn.fluid = true
	sn.rtoTimer.Stop()
	sn.pacingTimer.Cancel()
}

// Promote returns the sender to packet mode. deliveredTo is the
// cumulative stream offset the fluid trajectory delivered; the stream
// resumes from there with zero bytes in flight (the congestion window
// refills it), pacing re-anchored at now, and the RTO re-armed. If the
// fluid trajectory covered the whole flow the sender completes here —
// completion is always observed in packet mode. The caller is expected
// to have re-centered the congestion window (cc.WindowRescaler) first.
func (sn *Sender) Promote(deliveredTo int64) {
	if !sn.fluid || sn.finished {
		return
	}
	sn.fluid = false
	sn.disturbed = false
	sn.dupAcks = 0
	sn.inRecovery = false
	sn.rtoBackoff = 0
	if deliveredTo > sn.sndUna {
		sn.sndUna = deliveredTo
	}
	if sn.sndNxt < sn.sndUna {
		sn.sndNxt = sn.sndUna
	}
	now := sn.sim.Now()
	if sn.sndUna >= int64(sn.Size) {
		sn.complete(now)
		return
	}
	sn.pacingNext = now
	sn.armRTO()
	sn.trySend()
}

// Fluid reports whether the sender is in fluid mode.
func (sn *Sender) Fluid() bool { return sn.fluid }

// Disturbed reports whether a congestion signal arrived while fluid.
func (sn *Sender) Disturbed() bool { return sn.disturbed }

// LastDisturb returns the time of the most recent congestion signal
// (recovery entry, RTO fire, or ECN mark); zero if none yet.
func (sn *Sender) LastDisturb() units.Time { return sn.lastDisturb }

// SndUna returns the first unacknowledged stream offset.
func (sn *Sender) SndUna() int64 { return sn.sndUna }

// SndNxt returns the next unsent stream offset.
func (sn *Sender) SndNxt() int64 { return sn.sndNxt }

// InRecovery reports whether the sender is in fast recovery.
func (sn *Sender) InRecovery() bool { return sn.inRecovery }

// Alg exposes the congestion-control state machine.
func (sn *Sender) Alg() cc.Algorithm { return sn.alg }

// SRTT exposes the smoothed RTT estimate.
func (sn *Sender) SRTT() units.Time { return sn.srtt }

// RTO exposes the current retransmission timeout.
func (sn *Sender) RTO() units.Time { return sn.rto }

func (sn *Sender) complete(now units.Time) {
	sn.finished = true
	sn.FinishedAt = now
	sn.rtoTimer.Stop()
	sn.pacingTimer.Cancel()
	if sn.onComplete != nil {
		sn.onComplete(now)
	}
}
