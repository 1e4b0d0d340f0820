package aqm

import (
	"math/rand"

	"abm/internal/units"
)

// PIE is the Proportional Integral controller Enhanced AQM (Pan et al.
// 2013), the other delay-based scheme in Figure 1. It estimates queueing
// delay as qlen/drainRate (the paper's Φ = K * mu/b form) and updates a
// drop probability every TUpdate with a PI control law on the deviation
// from DelayTarget.
type PIE struct {
	DelayTarget units.Time // reference delay, default 1ms
	TUpdate     units.Time // control period, default 1ms
	AlphaGain   float64    // proportional gain, default 0.125
	BetaGain    float64    // integral gain, default 1.25

	dropProb   float64
	prevDelay  units.Time
	lastUpdate units.Time
	started    bool
}

// NewPIE returns a PIE instance with datacenter-scale defaults for zero
// fields.
func NewPIE(target units.Time) *PIE {
	p := &PIE{DelayTarget: target}
	if p.DelayTarget <= 0 {
		p.DelayTarget = units.Millisecond
	}
	p.TUpdate = units.Millisecond
	p.AlphaGain = 0.125
	p.BetaGain = 1.25
	return p
}

// Name implements Policy.
func (p *PIE) Name() string { return "pie" }

// DropProb exposes the current drop probability for tests.
func (p *PIE) DropProb() float64 { return p.dropProb }

// OnArrival implements Policy.
func (p *PIE) OnArrival(ctx *Ctx, rng *rand.Rand) Decision {
	delay := estimateDelay(ctx)
	p.maybeUpdate(delay, ctx.Now)
	if p.dropProb <= 0 {
		return Enqueue
	}
	// PIE bypasses control when the queue is nearly empty.
	if ctx.QueueLen <= 2*ctx.PacketSize {
		return Enqueue
	}
	if rng.Float64() < p.dropProb {
		if ctx.ECNCapable && p.dropProb < 0.1 {
			return Mark
		}
		return Drop
	}
	return Enqueue
}

func (p *PIE) maybeUpdate(delay units.Time, now units.Time) {
	if p.started && now-p.lastUpdate < p.TUpdate {
		return
	}
	if !p.started {
		p.started = true
		p.prevDelay = delay
		p.lastUpdate = now
		return
	}
	p.lastUpdate = now
	dp := float64(p.AlphaGain*(delay-p.DelayTarget).Seconds()) +
		float64(p.BetaGain*(delay-p.prevDelay).Seconds())
	// Scale the adjustment down while the probability is small, as the
	// RFC 8033 auto-tuning does, to avoid overshoot.
	switch {
	case p.dropProb < 0.000001:
		dp /= 2048
	case p.dropProb < 0.00001:
		dp /= 512
	case p.dropProb < 0.0001:
		dp /= 128
	case p.dropProb < 0.001:
		dp /= 32
	case p.dropProb < 0.01:
		dp /= 8
	case p.dropProb < 0.1:
		dp /= 2
	}
	p.dropProb += dp
	if p.dropProb < 0 {
		p.dropProb = 0
	}
	if p.dropProb > 1 {
		p.dropProb = 1
	}
	p.prevDelay = delay
}

func estimateDelay(ctx *Ctx) units.Time {
	if ctx.DrainRate <= 0 {
		return 0
	}
	return ctx.DrainRate.TxTime(ctx.QueueLen)
}
