package cc

import (
	"abm/internal/units"
)

// DCTCP is Data Center TCP (Alizadeh et al. 2011): switches mark packets
// above threshold K; the sender tracks the fraction of marked bytes per
// RTT in an EWMA alpha and cuts the window by alpha/2 once per window
// when marks appear. Growth follows Reno.
type DCTCP struct {
	cfg      Config
	cwnd     units.ByteCount
	ssthresh units.ByteCount

	g     float64 // EWMA gain, 1/16 per the paper
	alpha float64

	ackedBytes   units.ByteCount // bytes acked in the current observation window
	markedBytes  units.ByteCount
	windowTarget units.ByteCount // cwnd snapshot when the window opened
	cutDone      bool            // window already reduced this observation window
}

// NewDCTCP returns a DCTCP instance with the paper's constants.
func NewDCTCP() *DCTCP { return &DCTCP{g: 1.0 / 16} }

// Name implements Algorithm.
func (d *DCTCP) Name() string { return "dctcp" }

// Init implements Algorithm.
func (d *DCTCP) Init(cfg Config) {
	d.cfg = cfg
	d.cwnd = cfg.initialWindow()
	d.ssthresh = cfg.MaxCwnd
	if d.ssthresh == 0 {
		d.ssthresh = 1 << 30
	}
	d.alpha = 1 // conservative start, as in the paper's implementation
	d.windowTarget = d.cwnd
}

// Alpha exposes the marking estimate for tests.
func (d *DCTCP) Alpha() float64 { return d.alpha }

// OnAck implements Algorithm.
func (d *DCTCP) OnAck(ev AckEvent) {
	d.ackedBytes += ev.AckedBytes
	if ev.ECNMarked {
		d.markedBytes += ev.AckedBytes
		// React once per window: cut by alpha/2 at the first mark.
		if !d.cutDone {
			d.cutDone = true
			d.cwnd = units.ByteCount(float64(d.cwnd) * (1 - float64(d.alpha/2)))
			d.cwnd = clampWindow(d.cwnd, d.cfg.MSS, d.cfg.MaxCwnd)
			d.ssthresh = d.cwnd
		}
	}

	// Close the observation window after the window-open snapshot's worth
	// of ACKs. (Snapshotting avoids chasing a growing cwnd in slow start.)
	if d.ackedBytes >= d.windowTarget {
		f := float64(d.markedBytes) / float64(d.ackedBytes)
		d.alpha = float64((1-d.g)*d.alpha) + float64(d.g*f)
		d.ackedBytes, d.markedBytes = 0, 0
		d.cutDone = false
		d.windowTarget = d.cwnd
	}

	if ev.ECNMarked {
		return // no growth on marked ACKs
	}
	if d.cwnd < d.ssthresh {
		d.cwnd += ev.AckedBytes
	} else {
		inc := units.ByteCount(float64(d.cfg.MSS) * float64(ev.AckedBytes) / float64(d.cwnd))
		if inc < 1 {
			inc = 1
		}
		d.cwnd += inc
	}
	d.cwnd = clampWindow(d.cwnd, d.cfg.MSS, d.cfg.MaxCwnd)
}

// OnRecovery implements Algorithm.
func (d *DCTCP) OnRecovery(units.Time) {
	d.ssthresh = clampWindow(d.cwnd/2, d.cfg.MSS, d.cfg.MaxCwnd)
	d.cwnd = d.ssthresh
}

// OnTimeout implements Algorithm.
func (d *DCTCP) OnTimeout(units.Time) {
	d.ssthresh = clampWindow(d.cwnd/2, d.cfg.MSS, d.cfg.MaxCwnd)
	d.cwnd = d.cfg.MSS
}

// Window implements Algorithm.
func (d *DCTCP) Window() units.ByteCount { return d.cwnd }

// SetWindow implements WindowRescaler: re-centers congestion avoidance
// on the new window; the alpha EWMA carries over unchanged.
func (d *DCTCP) SetWindow(w units.ByteCount) {
	d.cwnd = clampWindow(w, d.cfg.MSS, d.cfg.MaxCwnd)
	d.ssthresh = d.cwnd
	d.windowTarget = d.cwnd
}

// PacingRate implements Algorithm.
func (d *DCTCP) PacingRate() units.Rate { return 0 }

// UsesECN implements Algorithm.
func (d *DCTCP) UsesECN() bool { return true }

// NeedsINT implements Algorithm.
func (d *DCTCP) NeedsINT() bool { return false }
