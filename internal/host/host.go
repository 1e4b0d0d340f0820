// Package host implements end hosts: a NIC that serializes packets onto
// the access link, a demultiplexer for the transport layer, and the flow
// factory the workload generators drive.
package host

import (
	"fmt"

	"abm/internal/cc"
	"abm/internal/device"
	"abm/internal/obs"
	"abm/internal/packet"
	"abm/internal/sim"
	"abm/internal/transport"
	"abm/internal/units"
)

// Config parameterizes a host.
type Config struct {
	ID      packet.NodeID
	Rate    units.Rate // NIC bandwidth
	BaseRTT units.Time // fabric base RTT, for cc Config and unscheduled budget
	MSS     units.ByteCount
	MinRTO  units.Time

	// UnscheduledBytes is the first-RTT budget tagged unscheduled; zero
	// selects one bandwidth-delay product.
	UnscheduledBytes units.ByteCount

	// Obs is the telemetry sink of the host's shard; nil disables
	// telemetry (see internal/obs).
	Obs *obs.Sink
}

// Host is one server: NIC plus transport endpoints.
type Host struct {
	sim  *sim.Simulator
	cfg  Config
	link *device.Link // egress toward the ToR

	// queue is the NIC FIFO. A data packet in it may carry a run of its
	// flow's segments (see Output); backlog counts the segments.
	queue   packet.FIFO
	backlog int
	busy    bool
	TxBytes units.ByteCount
	RxBytes units.ByteCount // payload bytes received (goodput)

	// txPkt is the packet currently serializing onto the wire.
	txPkt *packet.Packet
	tx    device.Serializer // cfg.Rate and its serialization lines

	// ep is what every flow of the host shares, its loss-recovery
	// tally included; the host is its NIC.
	ep        transport.Endpoint
	senders   flowTable[transport.Sender]
	receivers flowTable[transport.Receiver]

	// Packet-lifecycle counts. Output is the single counting point for
	// emissions: sender data and receiver ACKs both route through it.
	dataSent, retransSent, ackSent int64
	dataConsumed, ackRetired       int64
}

// New creates a host. Attach the uplink with Connect before starting
// flows.
func New(s *sim.Simulator, cfg Config) *Host {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("host %d: rate must be positive", cfg.ID))
	}
	if cfg.MSS <= 0 {
		cfg.MSS = 1440
	}
	if cfg.UnscheduledBytes <= 0 {
		cfg.UnscheduledBytes = cfg.Rate.BytesOver(cfg.BaseRTT)
	}
	h := &Host{sim: s, cfg: cfg, tx: device.NewSerializer(s, cfg.Rate, cfg.MSS)}
	h.ep.Init(s, cfg.ID, transport.Config{
		MSS:              cfg.MSS,
		MinRTO:           cfg.MinRTO,
		UnscheduledBytes: cfg.UnscheduledBytes,
		Obs:              cfg.Obs,
	}, h)
	cfg.Obs.AddSource(h)
	return h
}

// AddCounts implements obs.Source with the host's packet-lifecycle and
// loss-recovery counts; every recovery event is one window cut.
func (h *Host) AddCounts(t *obs.Tally) {
	t[obs.CtrDataSent] += h.dataSent
	t[obs.CtrRetransSent] += h.retransSent
	t[obs.CtrAckSent] += h.ackSent
	t[obs.CtrDataConsumed] += h.dataConsumed
	t[obs.CtrAckRetired] += h.ackRetired
	rec := &h.ep.Recovery
	t[obs.CtrRTOFired] += rec.Timeouts
	t[obs.CtrFastRetrans] += rec.FastRetrans
	t[obs.CtrCwndCuts] += rec.Timeouts + rec.FastRetrans
}

// ID implements device.Endpoint.
func (h *Host) ID() packet.NodeID { return h.cfg.ID }

// Rate returns the NIC line rate.
func (h *Host) Rate() units.Rate { return h.cfg.Rate }

// Connect attaches the host's egress link (toward its leaf switch).
func (h *Host) Connect(l *device.Link) { h.link = l }

// Receive implements device.Endpoint: demultiplex to transport. The
// host is the packet's final owner: once the transport has consumed a
// data segment or retired an ACK, the packet returns to the free list.
func (h *Host) Receive(pkt *packet.Packet) {
	if pkt.Dst != h.cfg.ID {
		panic(fmt.Sprintf("host %d received packet for %d", h.cfg.ID, pkt.Dst))
	}
	if pkt.Is(packet.FlagACK) {
		if sn := h.senders.get(pkt.FlowID); sn != nil {
			sn.OnAck(pkt)
		}
		h.ackRetired++
		h.sim.FreePacket(pkt)
		return
	}
	h.dataConsumed++
	h.RxBytes += pkt.Payload
	h.receiver(pkt.FlowID, pkt.Src).OnData(pkt)
	h.sim.FreePacket(pkt)
}

// Output enqueues a packet into the NIC FIFO; the NIC serializes at line
// rate onto the access link.
//
// A data segment that continues the FIFO's tail — same flow, the next
// byte, the same SentAt, the same flags but for FIN — joins it as a
// run: the tail's Payload grows and the segment returns to the free
// list. maybeTransmit cuts the run back into MSS segments, which is
// exact because a transport.Sender sends full segments except a flow's
// last, and that one carries FIN and ends the run. Equal flags keep a
// run from crossing the unscheduled tag's boundary or mixing
// retransmissions with new data.
func (h *Host) Output(pkt *packet.Packet) {
	h.backlog++
	if pkt.Is(packet.FlagACK) {
		h.ackSent++
	} else {
		h.dataSent++
		if pkt.Is(packet.FlagRetransmit) {
			h.retransSent++
		}
		if t := h.queue.Tail(); t != nil && t.FlowID == pkt.FlowID && t.Seq+int64(t.Payload) == pkt.Seq &&
			t.SentAt == pkt.SentAt && t.Flags == pkt.Flags&^packet.FlagFIN {
			t.Payload += pkt.Payload
			t.Flags = pkt.Flags
			h.sim.FreePacket(pkt)
			return // the NIC is busy: the tail waits behind the packet on the wire
		}
	}
	h.queue.Push(pkt)
	h.maybeTransmit()
}

// maybeTransmit starts the head segment when the NIC is idle. A head
// run longer than one MSS hands its first MSS to a fresh packet and
// stays queued; its last segment leaves as the run's own packet.
func (h *Host) maybeTransmit() {
	if h.busy || h.backlog == 0 {
		return
	}
	pkt := h.queue.Head()
	if mss := h.cfg.MSS; pkt.Payload > mss {
		run := pkt
		pkt = h.sim.NewPacket()
		pkt.FlowID, pkt.Src, pkt.Dst, pkt.Prio = run.FlowID, run.Src, run.Dst, run.Prio
		pkt.Seq, pkt.Payload, pkt.SentAt = run.Seq, mss, run.SentAt
		pkt.Flags = run.Flags &^ packet.FlagFIN
		run.Seq += int64(mss)
		run.Payload -= mss
	} else {
		h.queue.Pop()
	}
	h.backlog--
	h.busy = true
	h.txPkt = pkt
	h.tx.Start(pkt, hostTxDone, h)
}

// hostTxDone is every NIC's transmit-completion event: a package-level
// func with the host as its argument (no per-host closure).
func hostTxDone(a any) { a.(*Host).finishTx() }

// finishTx completes the in-flight NIC transmission.
func (h *Host) finishTx() {
	pkt := h.txPkt
	h.txPkt = nil
	h.TxBytes += pkt.Size()
	if h.link == nil {
		panic(fmt.Sprintf("host %d has no uplink", h.cfg.ID))
	}
	h.link.Send(pkt)
	h.busy = false
	h.maybeTransmit()
}

// StartFlow creates a sender toward dst and begins transmitting
// immediately. The returned sender completes when every byte is
// acknowledged; onComplete may be nil.
func (h *Host) StartFlow(flowID uint64, dst packet.NodeID, size units.ByteCount,
	prio uint8, algo cc.Algorithm, onComplete func(now units.Time)) *transport.Sender {
	algo.Init(cc.Config{
		MSS:      h.cfg.MSS,
		BaseRTT:  h.cfg.BaseRTT,
		LineRate: h.cfg.Rate,
	})
	sn := transport.NewSender(&h.ep, algo, flowID, dst, size, prio, onComplete)
	h.senders.put(flowID, sn)
	sn.Start()
	return sn
}

// Backlog returns the NIC queue depth in segments, a run counting one
// per segment it carries.
func (h *Host) Backlog() int { return h.backlog }

// Sender returns the sender for flowID, or nil.
func (h *Host) Sender(flowID uint64) *transport.Sender { return h.senders.get(flowID) }

// receiver returns flowID's receiver, creating it on first use; peer
// is the data sender its ACKs go to.
func (h *Host) receiver(flowID uint64, peer packet.NodeID) *transport.Receiver {
	rc := h.receivers.get(flowID)
	if rc == nil {
		rc = transport.NewReceiver(&h.ep, flowID, peer)
		h.receivers.put(flowID, rc)
	}
	return rc
}

// AdvanceReceiver moves flowID's receive point to stream offset to,
// creating the receiver if no packet has arrived yet (a flow can be
// demoted to fluid mode within its first RTT). The hybrid engine calls
// it at promotion so receiver-side accounting matches the fluid
// trajectory; peer is the data sender. The credited payload also counts
// toward the host's goodput.
func (h *Host) AdvanceReceiver(flowID uint64, peer packet.NodeID, to int64) {
	rc := h.receiver(flowID, peer)
	before := rc.BytesReceived
	rc.AdvanceTo(to)
	h.RxBytes += rc.BytesReceived - before
}
