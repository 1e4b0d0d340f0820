package cc

import (
	"abm/internal/units"
)

// Reno is TCP NewReno congestion control: slow start, additive increase
// of one MSS per RTT, multiplicative decrease by half. The baseline the
// other window-based algorithms build on.
type Reno struct {
	cfg      Config
	cwnd     units.ByteCount
	ssthresh units.ByteCount
}

// NewReno returns a Reno instance.
func NewReno() *Reno { return &Reno{} }

// Name implements Algorithm.
func (r *Reno) Name() string { return "reno" }

// Init implements Algorithm.
func (r *Reno) Init(cfg Config) {
	r.cfg = cfg
	r.cwnd = cfg.initialWindow()
	r.ssthresh = cfg.MaxCwnd
	if r.ssthresh == 0 {
		r.ssthresh = 1 << 30
	}
}

// OnAck implements Algorithm.
func (r *Reno) OnAck(ev AckEvent) {
	if r.cwnd < r.ssthresh {
		r.cwnd += ev.AckedBytes // slow start
	} else {
		// Congestion avoidance: +MSS per window's worth of ACKs.
		inc := units.ByteCount(float64(r.cfg.MSS) * float64(ev.AckedBytes) / float64(r.cwnd))
		if inc < 1 {
			inc = 1
		}
		r.cwnd += inc
	}
	r.cwnd = clampWindow(r.cwnd, r.cfg.MSS, r.cfg.MaxCwnd)
}

// OnRecovery implements Algorithm.
func (r *Reno) OnRecovery(units.Time) {
	r.ssthresh = clampWindow(r.cwnd/2, r.cfg.MSS, r.cfg.MaxCwnd)
	r.cwnd = r.ssthresh
}

// OnTimeout implements Algorithm.
func (r *Reno) OnTimeout(units.Time) {
	r.ssthresh = clampWindow(r.cwnd/2, r.cfg.MSS, r.cfg.MaxCwnd)
	r.cwnd = r.cfg.MSS
}

// SetWindow implements WindowRescaler: the new window becomes the
// congestion-avoidance operating point (ssthresh = cwnd).
func (r *Reno) SetWindow(w units.ByteCount) {
	r.cwnd = clampWindow(w, r.cfg.MSS, r.cfg.MaxCwnd)
	r.ssthresh = r.cwnd
}

// Window implements Algorithm.
func (r *Reno) Window() units.ByteCount { return r.cwnd }

// PacingRate implements Algorithm.
func (r *Reno) PacingRate() units.Rate { return 0 }

// UsesECN implements Algorithm.
func (r *Reno) UsesECN() bool { return false }

// NeedsINT implements Algorithm.
func (r *Reno) NeedsINT() bool { return false }
