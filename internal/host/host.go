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

	queue   []*packet.Packet // NIC FIFO
	qhead   int
	busy    bool
	TxBytes units.ByteCount
	RxBytes units.ByteCount // payload bytes received (goodput)

	// txPkt is the packet currently serializing onto the wire.
	txPkt *packet.Packet
	tx    units.TxClock // cfg.Rate with its cached per-byte time

	senders   flowTable[transport.Sender]
	receivers flowTable[transport.Receiver]

	// Packet-lifecycle counts. Output is the single counting point for
	// emissions: sender data and receiver ACKs both route through it.
	dataSent, retransSent, ackSent int64
	dataConsumed, ackRetired       int64
	// recovery is the tally every sender this host starts reports its
	// timeouts and fast retransmits to.
	recovery transport.Recovery
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
	h := &Host{sim: s, cfg: cfg, tx: units.NewTxClock(cfg.Rate)}
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
	t[obs.CtrRTOFired] += h.recovery.Timeouts
	t[obs.CtrFastRetrans] += h.recovery.FastRetrans
	t[obs.CtrCwndCuts] += h.recovery.Timeouts + h.recovery.FastRetrans
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
func (h *Host) Output(pkt *packet.Packet) {
	if pkt.Is(packet.FlagACK) {
		h.ackSent++
	} else {
		h.dataSent++
		if pkt.Is(packet.FlagRetransmit) {
			h.retransSent++
		}
	}
	h.queue = append(h.queue, pkt)
	h.maybeTransmit()
}

func (h *Host) maybeTransmit() {
	if h.busy || h.qhead >= len(h.queue) {
		return
	}
	pkt := h.queue[h.qhead]
	h.queue[h.qhead] = nil
	h.qhead++
	if h.qhead > 64 && h.qhead*2 >= len(h.queue) {
		n := copy(h.queue, h.queue[h.qhead:])
		h.queue = h.queue[:n]
		h.qhead = 0
	}
	h.busy = true
	h.txPkt = pkt
	h.sim.AfterArg(h.tx.TxTime(pkt.Size()), hostTxDone, h)
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
	sn := transport.NewSender(h.sim, transport.Config{
		MSS:              h.cfg.MSS,
		MinRTO:           h.cfg.MinRTO,
		UnscheduledBytes: h.cfg.UnscheduledBytes,
		Prio:             prio,
		Recovery:         &h.recovery,
		Obs:              h.cfg.Obs,
	}, algo, flowID, h.cfg.ID, dst, size, h.Output, onComplete)
	h.senders.put(flowID, sn)
	sn.Start()
	return sn
}

// Backlog returns the NIC queue depth in packets.
func (h *Host) Backlog() int { return len(h.queue) - h.qhead }

// Sender returns the sender for flowID, or nil.
func (h *Host) Sender(flowID uint64) *transport.Sender { return h.senders.get(flowID) }

// receiver returns flowID's receiver, creating it on first use; peer
// is the data sender its ACKs go to.
func (h *Host) receiver(flowID uint64, peer packet.NodeID) *transport.Receiver {
	rc := h.receivers.get(flowID)
	if rc == nil {
		rc = transport.NewReceiver(h.sim, flowID, h.cfg.ID, peer, h.Output)
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
