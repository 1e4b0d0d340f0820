package cc

import (
	"abm/internal/units"
)

// Timely is TIMELY (Mittal et al., SIGCOMM 2015): rate-based congestion
// control driven by the RTT gradient. Below TLow the rate increases
// additively; above THigh it decreases multiplicatively; in between the
// normalized RTT gradient steers additive increase (with hyperactive
// increase after N consecutive negative gradients) or gradient-
// proportional decrease.
type Timely struct {
	cfg Config

	rate units.Rate

	prevRTT   units.Time
	rttDiff   float64 // EWMA of RTT differences, picoseconds
	negStreak int     // consecutive completion events with negative gradient

	// Parameters (SIGCOMM '15 values scaled to the simulated fabric).
	EWMAAlpha float64    // weight of the new RTT difference, default 0.875
	TLow      units.Time // default 50us
	THigh     units.Time // default 500us
	AddStep   units.Rate // additive increment delta, default 10 Mb/s
	Beta      float64    // multiplicative decrease factor, default 0.8
	HAICount  int        // negative-gradient streak enabling hyperactive increase, default 5
	MinRate   units.Rate // default 10 Mb/s
}

// NewTimely returns a TIMELY instance with the paper's parameters.
func NewTimely() *Timely {
	return &Timely{
		EWMAAlpha: 0.875,
		TLow:      50 * units.Microsecond,
		THigh:     500 * units.Microsecond,
		AddStep:   10 * units.MegabitPerSec,
		Beta:      0.8,
		HAICount:  5,
		MinRate:   10 * units.MegabitPerSec,
	}
}

// Name implements Algorithm.
func (t *Timely) Name() string { return "timely" }

// Init implements Algorithm.
func (t *Timely) Init(cfg Config) {
	t.cfg = cfg
	t.rate = cfg.LineRate // start at line rate, as TIMELY does
}

// Rate exposes the current sending rate for tests.
func (t *Timely) Rate() units.Rate { return t.rate }

// OnAck implements Algorithm: the per-completion-event rate update.
func (t *Timely) OnAck(ev AckEvent) {
	if ev.RTT <= 0 {
		return
	}
	if t.prevRTT == 0 {
		t.prevRTT = ev.RTT
		return
	}
	newDiff := float64(ev.RTT - t.prevRTT)
	t.prevRTT = ev.RTT
	t.rttDiff = float64((1-t.EWMAAlpha)*t.rttDiff) + float64(t.EWMAAlpha*newDiff)
	gradient := t.rttDiff / float64(t.cfg.BaseRTT)

	switch {
	case ev.RTT < t.TLow:
		t.negStreak = 0
		t.setRate(t.rate + t.AddStep)
	case ev.RTT > t.THigh:
		t.negStreak = 0
		factor := 1 - float64(t.Beta*(1-float64(t.THigh)/float64(ev.RTT)))
		t.setRate(units.Rate(float64(t.rate) * factor))
	case gradient <= 0:
		t.negStreak++
		n := units.Rate(1)
		if t.negStreak >= t.HAICount {
			n = 5
		}
		t.setRate(t.rate + n*t.AddStep)
	default:
		t.negStreak = 0
		factor := 1 - float64(t.Beta*gradient)
		if factor < 0.1 {
			factor = 0.1
		}
		t.setRate(units.Rate(float64(t.rate) * factor))
	}
}

func (t *Timely) setRate(r units.Rate) {
	if r < t.MinRate {
		r = t.MinRate
	}
	if r > t.cfg.LineRate {
		r = t.cfg.LineRate
	}
	t.rate = r
}

// OnDupAck implements Algorithm.
func (t *Timely) OnDupAck(units.Time) {}

// OnRecovery implements Algorithm: loss means severe congestion.
func (t *Timely) OnRecovery(units.Time) {
	t.setRate(units.Rate(float64(t.rate) * 0.5))
}

// OnTimeout implements Algorithm.
func (t *Timely) OnTimeout(units.Time) {
	t.setRate(t.MinRate)
}

// Window implements Algorithm: TIMELY caps in-flight data at two BDPs so
// pacing, not the window, is the control.
func (t *Timely) Window() units.ByteCount {
	w := 2 * t.cfg.BDP()
	return clampWindow(w, t.cfg.MSS, t.cfg.MaxCwnd)
}

// PacingRate implements Algorithm.
func (t *Timely) PacingRate() units.Rate { return t.rate }

// UsesECN implements Algorithm.
func (t *Timely) UsesECN() bool { return false }

// NeedsINT implements Algorithm.
func (t *Timely) NeedsINT() bool { return false }
