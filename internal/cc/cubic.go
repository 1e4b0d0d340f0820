package cc

import (
	"math"

	"abm/internal/units"
)

// Cubic is TCP Cubic (Ha, Rhee, Xu 2008): window growth follows a cubic
// function of the time since the last decrease, anchored at the window
// where the loss happened. The paper's loss-based, buffer-hungry
// workhorse (§4.1 uses it for web-search traffic).
type Cubic struct {
	cfg      Config
	cwnd     units.ByteCount
	ssthresh units.ByteCount

	wMax       float64    // window before last reduction, in MSS
	k          float64    // time to regrow to wMax, seconds
	epochStart units.Time // start of the current growth epoch
	ackedBytes units.ByteCount
	rttEst     units.Time // latest RTT sample for the TCP-friendly region

	// Constants per the paper/RFC 8312.
	c    float64 // 0.4
	beta float64 // multiplicative decrease factor, 0.7
}

// NewCubic returns a Cubic instance with standard constants.
func NewCubic() *Cubic { return &Cubic{c: 0.4, beta: 0.7} }

// Name implements Algorithm.
func (cu *Cubic) Name() string { return "cubic" }

// Init implements Algorithm.
func (cu *Cubic) Init(cfg Config) {
	cu.cfg = cfg
	cu.cwnd = cfg.initialWindow()
	cu.ssthresh = cfg.MaxCwnd
	if cu.ssthresh == 0 {
		cu.ssthresh = 1 << 30
	}
}

// OnAck implements Algorithm.
func (cu *Cubic) OnAck(ev AckEvent) {
	if cu.cwnd < cu.ssthresh {
		cu.cwnd += ev.AckedBytes
		cu.cwnd = clampWindow(cu.cwnd, cu.cfg.MSS, cu.cfg.MaxCwnd)
		return
	}
	if cu.epochStart == 0 {
		cu.epochStart = ev.Now
		if cu.wMax < float64(cu.cwnd)/float64(cu.cfg.MSS) {
			cu.wMax = float64(cu.cwnd) / float64(cu.cfg.MSS)
			cu.k = 0
		} else {
			cu.k = math.Cbrt(cu.wMax * (1 - cu.beta) / cu.c)
		}
	}
	if ev.RTT > 0 {
		cu.rttEst = ev.RTT
	}
	t := (ev.Now - cu.epochStart).Seconds()
	target := float64(cu.c*math.Pow(t-cu.k, 3)) + cu.wMax // in MSS

	// TCP-friendly region (RFC 8312 §4.2): at datacenter RTTs the Reno
	// estimate dominates the cubic curve; without it Cubic would take
	// seconds to regrow a window the fabric refills in milliseconds.
	rtt := cu.rttEst
	if rtt <= 0 {
		rtt = cu.cfg.BaseRTT
	}
	if rtt > 0 {
		wEst := float64(cu.wMax*cu.beta) + float64(3*(1-cu.beta)/(1+cu.beta)*(t/rtt.Seconds()))
		if wEst > target {
			target = wEst
		}
	}
	targetBytes := units.ByteCount(target * float64(cu.cfg.MSS))
	if targetBytes > cu.cwnd {
		// Approach the cubic target within one RTT's worth of ACKs.
		gap := targetBytes - cu.cwnd
		inc := units.ByteCount(float64(gap) * float64(ev.AckedBytes) / float64(cu.cwnd))
		if inc < 1 {
			inc = 1
		}
		cu.cwnd += inc
	} else {
		// Concave plateau: minimal growth keeps the flow probing.
		cu.ackedBytes += ev.AckedBytes
		if cu.ackedBytes >= 100*cu.cwnd {
			cu.cwnd += cu.cfg.MSS
			cu.ackedBytes = 0
		}
	}
	cu.cwnd = clampWindow(cu.cwnd, cu.cfg.MSS, cu.cfg.MaxCwnd)
}

// OnDupAck implements Algorithm.
func (cu *Cubic) OnDupAck(units.Time) {}

// OnRecovery implements Algorithm.
func (cu *Cubic) OnRecovery(units.Time) {
	cu.wMax = float64(cu.cwnd) / float64(cu.cfg.MSS)
	cu.cwnd = units.ByteCount(float64(cu.cwnd) * cu.beta)
	cu.cwnd = clampWindow(cu.cwnd, cu.cfg.MSS, cu.cfg.MaxCwnd)
	cu.ssthresh = cu.cwnd
	cu.epochStart = 0
}

// OnTimeout implements Algorithm.
func (cu *Cubic) OnTimeout(units.Time) {
	cu.wMax = float64(cu.cwnd) / float64(cu.cfg.MSS)
	cu.ssthresh = clampWindow(units.ByteCount(float64(cu.cwnd)*cu.beta), cu.cfg.MSS, cu.cfg.MaxCwnd)
	cu.cwnd = cu.cfg.MSS
	cu.epochStart = 0
}

// Window implements Algorithm.
func (cu *Cubic) Window() units.ByteCount { return cu.cwnd }

// SetWindow implements WindowRescaler: the new window becomes the cubic
// plateau (wMax) and a fresh growth epoch starts from it.
func (cu *Cubic) SetWindow(w units.ByteCount) {
	cu.cwnd = clampWindow(w, cu.cfg.MSS, cu.cfg.MaxCwnd)
	cu.ssthresh = cu.cwnd
	cu.wMax = float64(cu.cwnd) / float64(cu.cfg.MSS)
	cu.epochStart = 0
}

// PacingRate implements Algorithm.
func (cu *Cubic) PacingRate() units.Rate { return 0 }

// UsesECN implements Algorithm.
func (cu *Cubic) UsesECN() bool { return false }

// NeedsINT implements Algorithm.
func (cu *Cubic) NeedsINT() bool { return false }
