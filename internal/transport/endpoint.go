package transport

import (
	"abm/internal/packet"
	"abm/internal/sim"
)

// NIC is where an endpoint's flows hand their packets: the host NIC's
// enqueue.
type NIC interface {
	Output(pkt *packet.Packet)
}

// Endpoint is one host's share of every flow it sends or receives: the
// simulator, the NIC, the transport configuration, the loss-recovery
// tally and the host ID. Each Sender and Receiver keeps a pointer to
// it, so a flow's own bytes are per-flow state only. A host holds its
// endpoint by value and sets it up with Init.
//
// The endpoint also pools the receivers' out-of-order span buffers. A
// receiver takes a pair when a hole opens and hands it back when its
// last hole closes, so only flows that currently have a hole hold
// buffers, and a hole that opens later reuses a pair some flow has
// already grown.
type Endpoint struct {
	sim *sim.Simulator
	nic NIC
	cfg Config
	id  packet.NodeID

	// Recovery counts the loss-recovery events of every sender on the
	// endpoint; it outlives the flows. The host's NIC counts the packets.
	Recovery Recovery

	free []*holes // released span-buffer pairs
}

// Init sets up ep as the transport endpoint of host id behind nic.
// Zero fields of cfg take their defaults.
func (ep *Endpoint) Init(s *sim.Simulator, id packet.NodeID, cfg Config, nic NIC) {
	cfg.fillDefaults()
	*ep = Endpoint{sim: s, nic: nic, cfg: cfg, id: id}
}

// holes is a receiver's out-of-order state: the sorted, disjoint spans
// beyond its cumulative point, and the spare buffer insert builds the
// merged list into before swapping the two.
type holes struct {
	ooo, alt []span
}

// takeHoles returns an empty span-buffer pair, reusing a released one.
func (ep *Endpoint) takeHoles() *holes {
	if n := len(ep.free); n > 0 {
		h := ep.free[n-1]
		ep.free[n-1] = nil
		ep.free = ep.free[:n-1]
		return h
	}
	return new(holes)
}

// putHoles releases a pair; the receiver must drop its pointer to it.
func (ep *Endpoint) putHoles(h *holes) {
	h.ooo, h.alt = h.ooo[:0], h.alt[:0]
	ep.free = append(ep.free, h)
}
