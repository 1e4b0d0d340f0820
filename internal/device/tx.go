package device

import (
	"abm/internal/packet"
	"abm/internal/sim"
	"abm/internal/units"
)

// Serializer is the transmit clock of one switch port or host NIC: the
// line rate, and the simulator's delay lines for the serialization
// times of the two packet sizes a fabric sends almost exclusively — a
// full segment (payload MSS) and a header-only packet (an ACK, or a
// data packet trimmed to its header). Start files the end of those two
// sizes' serialization on their line and every other size (a flow's
// last partial segment) on the calendar; either way the event pops
// exactly where AfterArg(TxTime(size)) would. The MSS only selects the
// line: a wrong value costs speed, never order.
type Serializer struct {
	sim       *sim.Simulator
	clock     units.TxClock
	mss       units.ByteCount
	full, hdr sim.DelayLine
}

// NewSerializer returns the transmit clock for rate r on s, with the
// full-segment line sized for mss payload bytes.
func NewSerializer(s *sim.Simulator, r units.Rate, mss units.ByteCount) Serializer {
	z := Serializer{sim: s, mss: mss}
	z.SetRate(r)
	return z
}

// SetRate switches the clock to rate r and resolves that rate's two
// lines, creating them on first use.
func (z *Serializer) SetRate(r units.Rate) {
	z.clock = units.NewTxClock(r)
	z.full = z.sim.DelayLine(z.clock.TxTime(packet.HeaderBytes + z.mss))
	z.hdr = z.sim.DelayLine(z.clock.TxTime(packet.HeaderBytes))
}

// Rate returns the line rate.
func (z *Serializer) Rate() units.Rate { return z.clock.Rate() }

// Start schedules fn(arg) at the end of pkt's serialization, which
// begins now.
func (z *Serializer) Start(pkt *packet.Packet, fn func(any), arg any) {
	switch pkt.Payload {
	case z.mss:
		z.sim.AfterLine(z.full, fn, arg)
	case 0:
		z.sim.AfterLine(z.hdr, fn, arg)
	default:
		z.sim.AfterArg(z.clock.TxTime(pkt.Size()), fn, arg)
	}
}
