package cc

import (
	"abm/internal/units"
)

// Swift (Kumar et al., SIGCOMM 2020) is Google's delay-based congestion
// control, cited in the paper's related work: additive increase while
// the measured RTT sits below a target delay, multiplicative decrease
// proportional to the overshoot — with at most one decrease per RTT.
type Swift struct {
	cfg Config

	cwnd units.ByteCount

	// TargetDelay is the end-to-end delay target; defaults to
	// baseRTT + 50us.
	TargetDelay units.Time
	// AI is the additive increase in MSS per RTT (1.0 per the paper).
	AI float64
	// Beta is the multiplicative decrease scale (0.8).
	Beta float64
	// MaxMDF caps a single decrease (0.5).
	MaxMDF float64

	lastDecrease units.Time
}

// NewSwift returns a Swift instance with the paper's constants.
func NewSwift() *Swift { return &Swift{AI: 1, Beta: 0.8, MaxMDF: 0.5} }

// Name implements Algorithm.
func (sw *Swift) Name() string { return "swift" }

// Init implements Algorithm.
func (sw *Swift) Init(cfg Config) {
	sw.cfg = cfg
	sw.cwnd = cfg.BDP()
	if sw.cwnd < cfg.MSS {
		sw.cwnd = cfg.MSS
	}
	if sw.TargetDelay <= 0 {
		sw.TargetDelay = cfg.BaseRTT + 50*units.Microsecond
	}
}

// OnAck implements Algorithm.
func (sw *Swift) OnAck(ev AckEvent) {
	if ev.RTT <= 0 {
		return
	}
	if ev.RTT < sw.TargetDelay {
		// Additive increase: AI MSS per RTT, spread across the window.
		inc := sw.AI * float64(sw.cfg.MSS) * float64(ev.AckedBytes) / float64(sw.cwnd)
		sw.cwnd += units.ByteCount(inc)
		if inc < 1 {
			sw.cwnd++
		}
	} else if ev.Now-sw.lastDecrease >= ev.RTT {
		// Multiplicative decrease proportional to overshoot, at most
		// once per RTT.
		over := float64(ev.RTT-sw.TargetDelay) / float64(ev.RTT)
		factor := 1 - float64(sw.Beta*over)
		if factor < 1-sw.MaxMDF {
			factor = 1 - sw.MaxMDF
		}
		sw.cwnd = units.ByteCount(float64(sw.cwnd) * factor)
		sw.lastDecrease = ev.Now
	}
	sw.cwnd = clampWindow(sw.cwnd, sw.cfg.MSS, sw.maxCwnd())
}

func (sw *Swift) maxCwnd() units.ByteCount {
	if sw.cfg.MaxCwnd > 0 {
		return sw.cfg.MaxCwnd
	}
	return 4 * sw.cfg.BDP()
}

// OnDupAck implements Algorithm.
func (sw *Swift) OnDupAck(units.Time) {}

// OnRecovery implements Algorithm.
func (sw *Swift) OnRecovery(now units.Time) {
	sw.cwnd = clampWindow(units.ByteCount(float64(sw.cwnd)*(1-sw.MaxMDF)), sw.cfg.MSS, sw.maxCwnd())
	sw.lastDecrease = now
}

// OnTimeout implements Algorithm.
func (sw *Swift) OnTimeout(units.Time) {
	sw.cwnd = sw.cfg.MSS
}

// Window implements Algorithm.
func (sw *Swift) Window() units.ByteCount { return sw.cwnd }

// SetWindow implements WindowRescaler.
func (sw *Swift) SetWindow(w units.ByteCount) {
	sw.cwnd = clampWindow(w, sw.cfg.MSS, sw.maxCwnd())
}

// PacingRate implements Algorithm.
func (sw *Swift) PacingRate() units.Rate { return 0 }

// UsesECN implements Algorithm.
func (sw *Swift) UsesECN() bool { return false }

// NeedsINT implements Algorithm.
func (sw *Swift) NeedsINT() bool { return false }
