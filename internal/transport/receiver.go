package transport

import (
	"abm/internal/packet"
	"abm/internal/units"
)

// Receiver is the receiving half of a flow: it tracks received byte
// ranges, advances the cumulative ACK point, and acknowledges every data
// packet with per-packet ECN echo (DCTCP-style accurate ECN), timestamp
// echo, and telemetry echo.
type Receiver struct {
	ep *Endpoint

	FlowID uint64
	Peer   packet.NodeID // the data sender

	rcvNxt int64
	// holes is the out-of-order state, taken from ep while the flow
	// has a hole beyond rcvNxt and nil otherwise.
	holes *holes

	BytesReceived units.ByteCount // cumulative payload, including out of order
	TrimmedSeen   int64
}

type span struct{ start, end int64 }

// NewReceiver creates the receiving half of a flow on ep's host whose
// data comes from peer.
func NewReceiver(ep *Endpoint, flowID uint64, peer packet.NodeID) *Receiver {
	return &Receiver{ep: ep, FlowID: flowID, Peer: peer}
}

// RcvNxt returns the cumulative in-order point.
func (r *Receiver) RcvNxt() int64 { return r.rcvNxt }

// OnData processes a data packet and responds with an ACK.
func (r *Receiver) OnData(pkt *packet.Packet) {
	if pkt.Is(packet.FlagTrimmed) {
		// The payload was cut in the fabric: acknowledge what we have so
		// the sender learns about the hole quickly.
		r.TrimmedSeen++
	} else if pkt.Payload > 0 {
		r.insert(pkt.Seq, pkt.Seq+int64(pkt.Payload))
		r.BytesReceived += pkt.Payload
	}

	ep := r.ep
	ack := ep.sim.NewPacket()
	ack.FlowID = pkt.FlowID
	ack.Src = ep.id
	ack.Dst = r.Peer
	ack.Prio = pkt.Prio
	ack.AckNo = r.rcvNxt
	ack.Flags = packet.FlagACK
	ack.SentAt = ep.sim.Now()
	ack.EchoTS = pkt.SentAt
	// The data packet's telemetry array moves to the ACK; nil it out so
	// releasing the data packet cannot recycle the array underneath us.
	ack.AckINT = pkt.Hops
	pkt.Hops = nil
	if pkt.Is(packet.FlagCE) {
		ack.Set(packet.FlagECE)
	}
	ep.nic.Output(ack)
}

// insert merges [start, end) into the received set and advances rcvNxt
// over any now-contiguous prefix. It builds the merged list into the
// spare buffer and swaps — appending in place would clobber spans not
// yet read once an insertion shifts the tail, and reslicing the
// consumed prefix away would walk the backing array's base forward so
// every in-order packet reallocates. With the swap, the two buffers
// reach the high-water span count and steady state allocates nothing.
//
// Without holes, a segment at or below rcvNxt just advances it: the
// merge would build the one span [rcvNxt, end) and consume it. A
// segment beyond rcvNxt takes a buffer pair from the endpoint, and
// the pair goes back once the list empties.
func (r *Receiver) insert(start, end int64) {
	if end <= r.rcvNxt {
		return // entirely duplicate
	}
	if r.holes == nil {
		if start <= r.rcvNxt {
			r.rcvNxt = end
			return
		}
		r.holes = r.ep.takeHoles()
	}
	if start < r.rcvNxt {
		start = r.rcvNxt
	}
	// Merge into the sorted disjoint span list, building into the spare.
	h := r.holes
	out := h.alt[:0]
	inserted := false
	for _, s := range h.ooo {
		switch {
		case s.end < start:
			out = append(out, s)
		case end < s.start:
			if !inserted {
				out = append(out, span{start, end})
				inserted = true
			}
			out = append(out, s)
		default: // overlap or adjacency: merge
			if s.start < start {
				start = s.start
			}
			if s.end > end {
				end = s.end
			}
		}
	}
	if !inserted {
		out = append(out, span{start, end})
	}
	r.advance(out)
}

// advance moves rcvNxt over the contiguous prefix of out, the merged
// span list built in the spare buffer, then shifts the survivors down
// so the buffer base never migrates and swaps out in as the list. An
// empty list hands the buffer pair back to the endpoint.
func (r *Receiver) advance(out []span) {
	k := 0
	for k < len(out) && out[k].start <= r.rcvNxt {
		if out[k].end > r.rcvNxt {
			r.rcvNxt = out[k].end
		}
		k++
	}
	n := copy(out, out[k:])
	h := r.holes
	h.alt = h.ooo[:0]
	h.ooo = out[:n]
	if n == 0 {
		r.ep.putHoles(h)
		r.holes = nil
	}
}

// Gaps returns the number of out-of-order spans currently held.
func (r *Receiver) Gaps() int {
	if r.holes == nil {
		return 0
	}
	return len(r.holes.ooo)
}

// AdvanceTo moves the cumulative in-order point to offset to, crediting
// the skipped bytes as received. The hybrid engine calls it at flow
// promotion so the receiver's accounting matches the fluid trajectory:
// bytes delivered in fluid mode were never individual packets, but the
// stream state must agree with what the reconstructed sender believes
// was acknowledged. Spans the fluid interval swallowed are dropped from
// the out-of-order list; double-counted overlap is subtracted from
// BytesReceived so per-flow byte totals stay exact.
func (r *Receiver) AdvanceTo(to int64) {
	if to <= r.rcvNxt {
		return
	}
	credited := to - r.rcvNxt
	r.rcvNxt = to
	if h := r.holes; h != nil {
		out := h.alt[:0]
		for _, s := range h.ooo {
			if s.end <= to {
				credited -= s.end - s.start // was already counted on arrival
				continue
			}
			if s.start <= to {
				credited -= to - s.start
				s.start = to
			}
			out = append(out, s)
		}
		// Contiguous prefix may now touch the first surviving span.
		r.advance(out)
	}
	r.BytesReceived += units.ByteCount(credited)
}
