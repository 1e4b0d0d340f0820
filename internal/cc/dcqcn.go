package cc

import (
	"abm/internal/units"
)

// DCQCN is Datacenter QCN (Zhu et al., SIGCOMM 2015), the ECN-based
// rate control for RDMA deployments cited in the paper's related work.
// Marked ACKs play the role of CNPs: the rate cuts by alpha/2 and alpha
// rises; without marks alpha decays and the rate recovers in stages —
// fast recovery (binary search back to the target rate) followed by
// additive increase of the target.
type DCQCN struct {
	cfg Config

	targetRate  units.Rate
	currentRate units.Rate
	alpha       float64

	// G is the alpha gain (1/256 per the paper).
	G float64
	// RAI is the additive increase step; defaults to 40 Mb/s.
	RAI units.Rate
	// RecoveryRounds is the number of fast-recovery iterations before
	// additive increase begins (5 per the paper).
	RecoveryRounds int

	// IncreaseTimer is the period between rate-increase events;
	// defaults to 4 base RTTs (scaled from the paper's 55us timer).
	IncreaseTimer units.Time

	rounds       int // completed increase rounds since the last cut
	lastIncrease units.Time
	lastAlphaDec units.Time
}

// NewDCQCN returns a DCQCN instance with the paper's constants scaled
// to the simulated fabric.
func NewDCQCN() *DCQCN {
	return &DCQCN{G: 1.0 / 256, RAI: 40 * units.MegabitPerSec, RecoveryRounds: 5}
}

// Name implements Algorithm.
func (d *DCQCN) Name() string { return "dcqcn" }

// Init implements Algorithm.
func (d *DCQCN) Init(cfg Config) {
	d.cfg = cfg
	d.targetRate = cfg.LineRate
	d.currentRate = cfg.LineRate
	d.alpha = 1
	if d.IncreaseTimer <= 0 {
		d.IncreaseTimer = 4 * cfg.BaseRTT
	}
}

// Rate exposes the current sending rate.
func (d *DCQCN) Rate() units.Rate { return d.currentRate }

// Alpha exposes the congestion estimate.
func (d *DCQCN) Alpha() float64 { return d.alpha }

// OnAck implements Algorithm.
func (d *DCQCN) OnAck(ev AckEvent) {
	if ev.ECNMarked {
		// CNP: cut the rate, raise alpha, restart recovery.
		d.targetRate = d.currentRate
		d.currentRate = units.Rate(float64(d.currentRate) * (1 - float64(d.alpha/2)))
		if d.currentRate < 10*units.MegabitPerSec {
			d.currentRate = 10 * units.MegabitPerSec
		}
		d.alpha = float64((1-d.G)*d.alpha) + d.G
		d.rounds = 0
		d.lastIncrease = ev.Now
		return
	}
	// Alpha decays on mark-free RTTs.
	if ev.Now-d.lastAlphaDec >= d.cfg.BaseRTT {
		d.alpha = (1 - d.G) * d.alpha
		d.lastAlphaDec = ev.Now
	}
	// Periodic rate increase.
	if ev.Now-d.lastIncrease < d.IncreaseTimer {
		return
	}
	d.lastIncrease = ev.Now
	d.rounds++
	if d.rounds > d.RecoveryRounds {
		// Additive increase phase: push the target up.
		d.targetRate += d.RAI
		if d.targetRate > d.cfg.LineRate {
			d.targetRate = d.cfg.LineRate
		}
	}
	// Binary-search the current rate toward the target.
	d.currentRate = (d.currentRate + d.targetRate) / 2
	if d.currentRate > d.cfg.LineRate {
		d.currentRate = d.cfg.LineRate
	}
}

// OnDupAck implements Algorithm.
func (d *DCQCN) OnDupAck(units.Time) {}

// OnRecovery implements Algorithm: RDMA fabrics are lossless, but under
// our lossy switches a loss is a strong congestion signal.
func (d *DCQCN) OnRecovery(units.Time) {
	d.targetRate = d.currentRate
	d.currentRate /= 2
	d.rounds = 0
}

// OnTimeout implements Algorithm.
func (d *DCQCN) OnTimeout(units.Time) {
	d.targetRate = d.currentRate
	d.currentRate = 10 * units.MegabitPerSec
	d.rounds = 0
}

// Window implements Algorithm: two BDPs, pacing is the control.
func (d *DCQCN) Window() units.ByteCount {
	return clampWindow(2*d.cfg.BDP(), d.cfg.MSS, d.cfg.MaxCwnd)
}

// PacingRate implements Algorithm.
func (d *DCQCN) PacingRate() units.Rate { return d.currentRate }

// UsesECN implements Algorithm.
func (d *DCQCN) UsesECN() bool { return true }

// NeedsINT implements Algorithm.
func (d *DCQCN) NeedsINT() bool { return false }
