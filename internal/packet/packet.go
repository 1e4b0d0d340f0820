// Package packet defines the simulated packet: a TCP-like segment with
// the fields the reproduced systems need — ECN bits for DCTCP, the
// unscheduled (first-RTT) tag that ABM prioritizes (§3.3), and in-band
// network telemetry (INT) hops for PowerTCP.
package packet

import (
	"fmt"

	"abm/internal/units"
)

// NodeID identifies a host or switch in the topology.
type NodeID int32

// HeaderBytes is the wire overhead per segment (Ethernet + IP + TCP,
// rounded to the values common in datacenter simulators).
const HeaderBytes units.ByteCount = 60

// Flag is a set of packet flags.
type Flag uint16

// Packet flags.
const (
	FlagACK         Flag = 1 << iota // acknowledgment segment
	FlagSYN                          // connection open (unused by default workloads)
	FlagFIN                          // sender has no more data after this segment
	FlagCE                           // ECN congestion-experienced, set by switches
	FlagECE                          // ECN echo, set by receivers on ACKs
	FlagECT                          // ECN-capable transport
	FlagUnscheduled                  // first-RTT packet, tagged by hosts (ABM §3.3)
	FlagRetransmit                   // diagnostic: segment is a retransmission
	FlagTrimmed                      // payload removed by a trimming AQM
)

// HopINT is one hop's worth of in-band telemetry, appended by switches
// with INT enabled and echoed back to the sender on ACKs. PowerTCP
// consumes these.
type HopINT struct {
	QLen    units.ByteCount // egress queue length after this packet
	TxBytes units.ByteCount // cumulative bytes transmitted by the egress port
	TS      units.Time      // timestamp of transmission
	Rate    units.Rate      // egress port bandwidth
}

// Packet is a simulated segment. Packets are passed by pointer and owned
// by exactly one component at a time; they are never shared.
//
// Layout: the fields every hop reads or writes, the FIFO link and
// EnqAt included, fill the first 64 bytes; the two INT slices start the
// second 64 and the endpoint-only AckNo and EchoTS close it, so a
// switch that forwards without INT touches one cache line per packet.
// The struct is 128 bytes, a Go allocation size class whose objects are
// 64-byte aligned (packet_test pins both).
type Packet struct {
	FlowID uint64
	Src    NodeID
	Dst    NodeID
	Flags  Flag
	Prio   uint8 // switch queue (priority) index

	// HeadroomCharged records that the MMU admitted this packet from the
	// headroom pool, so dequeue releases the right accounting bucket.
	HeadroomCharged bool

	// pooled guards against double-release to a Pool.
	pooled bool

	Seq int64 // first payload byte offset within the flow
	// Payload is the segment's data bytes. In a host's NIC queue a data
	// packet may carry a run of its flow's segments, several MSS long;
	// the NIC cuts it into segments as it transmits (see host.Output).
	Payload units.ByteCount
	SentAt  units.Time // stamped by the sender, echoed on ACKs

	next  *Packet    // link in the one FIFO or free list holding the packet
	EnqAt units.Time // when its switch queue took it (Codel, delay stats)

	// Hops accumulates INT as the packet crosses switches; AckINT carries
	// the data packet's telemetry back to the sender.
	Hops   []HopINT
	AckINT []HopINT

	AckNo  int64      // cumulative ACK (valid when FlagACK)
	EchoTS units.Time // on ACKs: the SentAt of the segment being acked
}

// Size returns the wire size of the packet.
func (p *Packet) Size() units.ByteCount { return HeaderBytes + p.Payload }

// Is reports whether all flags in f are set.
func (p *Packet) Is(f Flag) bool { return p.Flags&f == f }

// Set sets the given flags.
func (p *Packet) Set(f Flag) { p.Flags |= f }

// Clear clears the given flags.
func (p *Packet) Clear(f Flag) { p.Flags &^= f }

// Trim removes the payload, marking the packet as trimmed. Used by
// cut-payload AQMs: the header still reaches the receiver so the loss is
// signaled without a timeout.
func (p *Packet) Trim() {
	p.Payload = 0
	p.Set(FlagTrimmed)
}

// String renders a compact debug representation.
func (p *Packet) String() string {
	kind := "DATA"
	if p.Is(FlagACK) {
		kind = "ACK"
	}
	return fmt.Sprintf("%s flow=%d %d->%d seq=%d len=%d ack=%d prio=%d flags=%04b",
		kind, p.FlowID, p.Src, p.Dst, p.Seq, p.Payload, p.AckNo, p.Prio, p.Flags)
}
