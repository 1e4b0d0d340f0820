package cc

import (
	"abm/internal/units"
)

// ThetaPowerTCP is θ-PowerTCP, the telemetry-free variant of PowerTCP
// (NSDI 2022 §5): it reconstructs power from timestamps only. With
// queueing delay θ = RTT − baseRTT, the bottleneck current is
// λ ≈ b·(θ̇ + 1) and the voltage ν ≈ b·(θ + baseRTT), so normalized
// power reduces to
//
//	Γ = (θ̇ + 1) · (θ + baseRTT) / baseRTT
//
// The window law is identical to PowerTCP's. The paper's evaluation uses
// θ-PowerTCP as one of the three isolated priorities in Figure 8.
type ThetaPowerTCP struct {
	cfg Config

	cwnd     units.ByteCount
	prevCwnd units.ByteCount
	lastSnap units.Time

	gamma float64
	beta  units.ByteCount

	prevTheta units.Time
	prevNow   units.Time
	smoothed  float64
}

// NewThetaPowerTCP returns a θ-PowerTCP instance with the paper's
// constants.
func NewThetaPowerTCP() *ThetaPowerTCP { return &ThetaPowerTCP{gamma: 0.9} }

// Name implements Algorithm.
func (p *ThetaPowerTCP) Name() string { return "theta-powertcp" }

// Init implements Algorithm.
func (p *ThetaPowerTCP) Init(cfg Config) {
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
func (p *ThetaPowerTCP) NormPower() float64 { return p.smoothed }

// OnAck implements Algorithm.
func (p *ThetaPowerTCP) OnAck(ev AckEvent) {
	if ev.RTT <= 0 {
		return
	}
	theta := ev.RTT - p.cfg.BaseRTT
	if theta < 0 {
		theta = 0
	}
	if p.prevNow == 0 {
		p.prevNow, p.prevTheta = ev.Now, theta
		return
	}
	dt := ev.Now - p.prevNow
	if dt <= 0 {
		return
	}
	thetaDot := float64(theta-p.prevTheta) / float64(dt)
	p.prevNow, p.prevTheta = ev.Now, theta

	norm := (thetaDot + 1) * float64(theta+p.cfg.BaseRTT) / float64(p.cfg.BaseRTT)
	if norm < 0.05 {
		norm = 0.05
	}
	// Smooth over one base RTT.
	tau := p.cfg.BaseRTT
	if dt > tau {
		dt = tau
	}
	p.smoothed = (float64(p.smoothed*float64(tau-dt)) + float64(norm*float64(dt))) / float64(tau)

	newCwnd := float64(p.gamma*(float64(p.prevCwnd)/p.smoothed+float64(p.beta))) + float64((1-p.gamma)*float64(p.cwnd))
	p.cwnd = clampWindow(units.ByteCount(newCwnd), p.cfg.MSS, p.cfg.cwndCap())
	if ev.Now-p.lastSnap >= p.cfg.BaseRTT {
		p.prevCwnd = p.cwnd
		p.lastSnap = ev.Now
	}
}

// OnRecovery implements Algorithm.
func (p *ThetaPowerTCP) OnRecovery(units.Time) {
	p.cwnd = clampWindow(p.cwnd/2, p.cfg.MSS, p.cfg.cwndCap())
	p.prevCwnd = p.cwnd
}

// OnTimeout implements Algorithm.
func (p *ThetaPowerTCP) OnTimeout(units.Time) {
	p.cwnd = p.cfg.MSS
	p.prevCwnd = p.cwnd
}

// Window implements Algorithm.
func (p *ThetaPowerTCP) Window() units.ByteCount { return p.cwnd }

// PacingRate implements Algorithm.
func (p *ThetaPowerTCP) PacingRate() units.Rate {
	return units.RateOf(p.cwnd, p.cfg.BaseRTT)
}

// UsesECN implements Algorithm.
func (p *ThetaPowerTCP) UsesECN() bool { return false }

// NeedsINT implements Algorithm.
func (p *ThetaPowerTCP) NeedsINT() bool { return false }
