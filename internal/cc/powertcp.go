package cc

import (
	"abm/internal/packet"
	"abm/internal/units"
)

// PowerTCP (Addanki, Michel, Schmid — NSDI 2022) reacts to "power": the
// product of current (arrival rate λ = queue gradient + throughput) and
// voltage (queue length + BDP) at the bottleneck hop, read from in-band
// telemetry. Normalized power Γ above 1 means the hop operates beyond
// its base power b²·baseRTT and the window contracts; below 1 it grows.
//
//	cwnd = γ·(cwnd_old/Γ + β) + (1−γ)·cwnd
//
// where cwnd_old is the window one RTT ago and β is the additive term.
type PowerTCP struct {
	cfg Config

	cwnd     units.ByteCount
	prevCwnd units.ByteCount // window ~one RTT ago
	lastSnap units.Time

	gamma float64         // EWMA/update weight, 0.9 per the paper
	beta  units.ByteCount // additive increase, defaults to MSS/2

	prevHops  []packet.HopINT // previous telemetry per hop index
	smoothed  float64         // smoothed normalized power
	havePower bool
}

// NewPowerTCP returns a PowerTCP instance with the paper's constants.
func NewPowerTCP() *PowerTCP { return &PowerTCP{gamma: 0.9} }

// Name implements Algorithm.
func (p *PowerTCP) Name() string { return "powertcp" }

// Init implements Algorithm.
func (p *PowerTCP) Init(cfg Config) {
	p.cfg = cfg
	p.cwnd = cfg.BDP()
	if p.cwnd < cfg.MSS {
		p.cwnd = cfg.MSS
	}
	p.prevCwnd = p.cwnd
	if p.beta == 0 {
		p.beta = cfg.MSS / 2
		if p.beta < 1 {
			p.beta = 1
		}
	}
	p.smoothed = 1
}

// NormPower exposes the smoothed normalized power for tests.
func (p *PowerTCP) NormPower() float64 { return p.smoothed }

// OnAck implements Algorithm.
func (p *PowerTCP) OnAck(ev AckEvent) {
	if len(ev.INT) == 0 {
		return
	}
	norm := p.normPower(ev)
	p.updateWindow(norm, ev.Now)
}

// normPower computes the maximum normalized power across hops and
// smooths it over the base RTT.
func (p *PowerTCP) normPower(ev AckEvent) float64 {
	maxNorm := 0.0
	var dtUsed units.Time
	for i, hop := range ev.INT {
		if i >= len(p.prevHops) {
			p.prevHops = append(p.prevHops, hop)
			continue
		}
		prev := p.prevHops[i]
		p.prevHops[i] = hop
		dt := hop.TS - prev.TS
		if dt <= 0 {
			continue
		}
		qDot := float64(hop.QLen-prev.QLen) * 8 / dt.Seconds() // bits/s, may be negative
		txRate := float64(hop.TxBytes-prev.TxBytes) * 8 / dt.Seconds()
		lambda := qDot + txRate // current
		if lambda < 0 {
			lambda = 0
		}
		bdp := float64(units.BDP(hop.Rate, p.cfg.BaseRTT).Bits())
		voltage := float64(hop.QLen.Bits()) + bdp
		power := lambda * voltage
		base := float64(hop.Rate) * bdp // b² · baseRTT in bit units
		if base <= 0 {
			continue
		}
		if n := power / base; n > maxNorm {
			maxNorm = n
			dtUsed = dt
		}
	}
	if maxNorm == 0 {
		return p.smoothed
	}
	// Smooth over one base RTT: Γ ← (Γ·(τ−Δt) + Γ'·Δt)/τ.
	tau := p.cfg.BaseRTT
	if dtUsed > tau {
		dtUsed = tau
	}
	p.smoothed = (float64(p.smoothed*float64(tau-dtUsed)) + float64(maxNorm*float64(dtUsed))) / float64(tau)
	p.havePower = true
	return p.smoothed
}

// updateWindow applies the PowerTCP window law.
func (p *PowerTCP) updateWindow(norm float64, now units.Time) {
	if norm < 0.05 {
		norm = 0.05 // avoid explosion on near-idle paths
	}
	newCwnd := float64(p.gamma*(float64(p.prevCwnd)/norm+float64(p.beta))) + float64((1-p.gamma)*float64(p.cwnd))
	p.cwnd = clampWindow(units.ByteCount(newCwnd), p.cfg.MSS, p.maxCwnd())
	// Snapshot the window once per base RTT as "cwnd_old".
	if now-p.lastSnap >= p.cfg.BaseRTT {
		p.prevCwnd = p.cwnd
		p.lastSnap = now
	}
}

func (p *PowerTCP) maxCwnd() units.ByteCount {
	if p.cfg.MaxCwnd > 0 {
		return p.cfg.MaxCwnd
	}
	return 4 * p.cfg.BDP()
}

// OnDupAck implements Algorithm.
func (p *PowerTCP) OnDupAck(units.Time) {}

// OnRecovery implements Algorithm.
func (p *PowerTCP) OnRecovery(units.Time) {
	p.cwnd = clampWindow(p.cwnd/2, p.cfg.MSS, p.maxCwnd())
	p.prevCwnd = p.cwnd
}

// OnTimeout implements Algorithm.
func (p *PowerTCP) OnTimeout(units.Time) {
	p.cwnd = p.cfg.MSS
	p.prevCwnd = p.cwnd
}

// Window implements Algorithm.
func (p *PowerTCP) Window() units.ByteCount { return p.cwnd }

// PacingRate implements Algorithm: pace at cwnd/baseRTT to smooth bursts,
// as the paper's implementation does.
func (p *PowerTCP) PacingRate() units.Rate {
	return units.RateOf(p.cwnd, p.cfg.BaseRTT)
}

// UsesECN implements Algorithm.
func (p *PowerTCP) UsesECN() bool { return false }

// NeedsINT implements Algorithm.
func (p *PowerTCP) NeedsINT() bool { return true }
