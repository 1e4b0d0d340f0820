package cc

import (
	"abm/internal/packet"
	"abm/internal/units"
)

// HPCC is High Precision Congestion Control (Li et al., SIGCOMM 2019),
// cited by the paper (§3.4) as the in-band-telemetry transport whose
// switches already expose the drain-rate statistics ABM needs. Each ACK
// carries per-hop INT; the sender computes every hop's utilization
//
//	u_j = qlen_j/(b_j·T) + txRate_j/b_j
//
// and drives the window multiplicatively toward the target utilization
// η plus a small additive term:
//
//	W = Wc / (maxU/η) + W_AI
//
// with the reference window Wc resynchronized once per base RTT.
type HPCC struct {
	cfg Config

	cwnd     units.ByteCount
	refCwnd  units.ByteCount
	lastSync units.Time

	// Eta is the target utilization, 0.95 per the paper.
	Eta float64
	// AIBytes is the additive increase per update; defaults to MSS/2.
	AIBytes units.ByteCount

	prevHops []packet.HopINT
	maxU     float64 // latest utilization estimate
}

// NewHPCC returns an HPCC instance with the paper's constants.
func NewHPCC() *HPCC { return &HPCC{Eta: 0.95} }

// Name implements Algorithm.
func (h *HPCC) Name() string { return "hpcc" }

// Init implements Algorithm.
func (h *HPCC) Init(cfg Config) {
	h.cfg = cfg
	h.cwnd = cfg.BDP()
	if h.cwnd < cfg.MSS {
		h.cwnd = cfg.MSS
	}
	h.refCwnd = h.cwnd
	if h.AIBytes == 0 {
		h.AIBytes = cfg.MSS / 2
		if h.AIBytes < 1 {
			h.AIBytes = 1
		}
	}
	h.maxU = h.Eta
}

// Utilization exposes the latest max-hop utilization estimate.
func (h *HPCC) Utilization() float64 { return h.maxU }

// OnAck implements Algorithm.
func (h *HPCC) OnAck(ev AckEvent) {
	if len(ev.INT) == 0 {
		return
	}
	maxU := 0.0
	for i, hop := range ev.INT {
		if i >= len(h.prevHops) {
			h.prevHops = append(h.prevHops, hop)
			continue
		}
		prev := h.prevHops[i]
		h.prevHops[i] = hop
		dt := hop.TS - prev.TS
		if dt <= 0 || hop.Rate <= 0 {
			continue
		}
		txRate := float64(hop.TxBytes-prev.TxBytes) * 8 / dt.Seconds()
		bdpBits := float64(units.BDP(hop.Rate, h.cfg.BaseRTT).Bits())
		u := 0.0
		if bdpBits > 0 {
			u = float64(hop.QLen.Bits()) / bdpBits
		}
		u += txRate / float64(hop.Rate)
		if u > maxU {
			maxU = u
		}
	}
	if maxU <= 0 {
		return
	}
	// EWMA over roughly one RTT of ACKs.
	h.maxU = float64(0.9*h.maxU) + float64(0.1*maxU)

	w := float64(h.refCwnd)/(h.maxU/h.Eta) + float64(h.AIBytes)
	h.cwnd = clampWindow(units.ByteCount(w), h.cfg.MSS, h.maxCwnd())

	if ev.Now-h.lastSync >= h.cfg.BaseRTT {
		h.refCwnd = h.cwnd
		h.lastSync = ev.Now
	}
}

func (h *HPCC) maxCwnd() units.ByteCount {
	if h.cfg.MaxCwnd > 0 {
		return h.cfg.MaxCwnd
	}
	return 4 * h.cfg.BDP()
}

// OnDupAck implements Algorithm.
func (h *HPCC) OnDupAck(units.Time) {}

// OnRecovery implements Algorithm.
func (h *HPCC) OnRecovery(units.Time) {
	h.cwnd = clampWindow(h.cwnd/2, h.cfg.MSS, h.maxCwnd())
	h.refCwnd = h.cwnd
}

// OnTimeout implements Algorithm.
func (h *HPCC) OnTimeout(units.Time) {
	h.cwnd = h.cfg.MSS
	h.refCwnd = h.cwnd
}

// Window implements Algorithm.
func (h *HPCC) Window() units.ByteCount { return h.cwnd }

// PacingRate implements Algorithm: pace at cwnd per base RTT.
func (h *HPCC) PacingRate() units.Rate { return units.RateOf(h.cwnd, h.cfg.BaseRTT) }

// UsesECN implements Algorithm.
func (h *HPCC) UsesECN() bool { return false }

// NeedsINT implements Algorithm.
func (h *HPCC) NeedsINT() bool { return true }
