// Package analytic implements the paper's fluid-model results: Dynamic
// Thresholds' steady state (Eq. 6) and burst tolerance (Eq. 8), ABM's
// isolation and drain-time bounds (Theorems 1-3), and ABM's burst
// tolerance (Eqs. 10-11). These generate Figures 4 and 5 and serve as
// ground truth for property tests against the packet simulator.
package analytic

import (
	"fmt"

	"abm/internal/units"
)

// PriorityLoad describes one priority's steady-state congestion: its
// configured alpha and how many of its queues are congested.
type PriorityLoad struct {
	Alpha     float64
	Congested int
}

// DTSteadyThreshold returns DT's per-queue threshold in steady state
// (Eq. 6): T = alpha_p * B / (1 + Σ n_p·alpha_p).
func DTSteadyThreshold(b units.ByteCount, alphaP float64, prios []PriorityLoad) units.ByteCount {
	denom := 1.0
	for _, p := range prios {
		denom += float64(float64(p.Congested) * p.Alpha)
	}
	return units.ByteCount(alphaP * float64(b) / denom)
}

// DTSteadyOccupancy returns the per-priority totals and the overall
// buffer occupancy under DT in steady state, assuming every congested
// queue sits at its threshold.
func DTSteadyOccupancy(b units.ByteCount, prios []PriorityLoad) (perPrio []units.ByteCount, total units.ByteCount) {
	perPrio = make([]units.ByteCount, len(prios))
	for i, p := range prios {
		thr := DTSteadyThreshold(b, p.Alpha, prios)
		perPrio[i] = units.ByteCount(p.Congested) * thr
		total += perPrio[i]
	}
	return perPrio, total
}

// ABMSteadyThreshold returns ABM's per-queue threshold in steady state
// (Eq. 17 with omega = alpha/n * mu/b): the congested-queue count and
// drain share are folded into omega before the DT-like fixed point.
func ABMSteadyThreshold(b units.ByteCount, omegaQueue float64, sumOmega float64) units.ByteCount {
	return units.ByteCount(omegaQueue * float64(b) / (1 + sumOmega))
}

// ABMMinGuarantee is Theorem 1: the buffer available to priority p is at
// least B·alpha_p / (1 + Σ alpha).
func ABMMinGuarantee(b units.ByteCount, alphaP, sumAlphas float64) units.ByteCount {
	return units.ByteCount(float64(b) * alphaP / (1 + sumAlphas))
}

// ABMMaxAllocation is Theorem 2: the buffer used by priority p is at
// most B·alpha_p / (1 + alpha_p).
func ABMMaxAllocation(b units.ByteCount, alphaP float64) units.ByteCount {
	return units.ByteCount(float64(b) * alphaP / (1 + alphaP))
}

// ABMDrainTimeBound is Theorem 3: any queue of priority p drains within
// B·alpha_p / ((1+alpha_p)·bandwidth).
func ABMDrainTimeBound(b units.ByteCount, alphaP float64, bandwidth units.Rate) units.Time {
	bound := float64(b.Bits()) * alphaP / ((1 + alphaP) * float64(bandwidth))
	return units.Time(bound * float64(units.Second))
}

// BurstScenario is the setting of Figure 5: a steady-state buffer with
// background congestion, then a burst arriving at one fresh queue.
type BurstScenario struct {
	B        units.ByteCount // shared buffer
	PortRate units.Rate      // b, uniform port bandwidth

	// Alpha is the configured alpha for every priority (the paper uses
	// 0.5 across queues in §4.1).
	Alpha float64
	// AlphaBurst is the alpha applied to the bursting queue; ABM's
	// unscheduled prioritization sets it to 64 (§3.3), DT has no such
	// notion and uses Alpha.
	AlphaBurst float64

	// CongestedPorts is the number of ports with pre-existing congestion
	// (one congested background queue each) — Figure 5a/5c's axis.
	CongestedPorts int
	// QueuesPerPort is the number of congested queues sharing the
	// burst's port (including the burst queue) — Figure 5b/5d's axis.
	QueuesPerPort int

	// BurstRate is the burst arrival rate r.
	BurstRate units.Rate
}

func (s BurstScenario) validate() {
	if s.B <= 0 || s.PortRate <= 0 || s.BurstRate <= 0 {
		panic(fmt.Sprintf("analytic: invalid scenario %+v", s))
	}
	if s.CongestedPorts < 0 || s.QueuesPerPort < 1 {
		panic(fmt.Sprintf("analytic: invalid congestion in %+v", s))
	}
}

// muBurst returns the drain rate available to the bursting queue: the
// port bandwidth divided by the queues sharing the port.
func (s BurstScenario) muBurst() float64 {
	return float64(s.PortRate) / float64(s.QueuesPerPort)
}

// aggregateDrain returns mu, the buffer's aggregate drain rate from the
// pre-existing congested ports.
func (s BurstScenario) aggregateDrain() float64 {
	return float64(float64(s.CongestedPorts) * float64(s.PortRate))
}

// DTBurstTolerance evaluates DT's burst tolerance. When the burst grows
// slower than the aggregate drain, the burst simply occupies its
// steady-state allocation (Eq. 6); otherwise the transient analysis of
// §2.3 applies (Eq. 8).
func (s BurstScenario) DTBurstTolerance() units.ByteCount {
	s.validate()
	r := float64(s.BurstRate)
	muIP := s.muBurst()
	mu := s.aggregateDrain()

	// All pre-existing congested queues plus the burst's port-mates share
	// the buffer: n = ports + extra queues on the burst port.
	n := s.CongestedPorts + (s.QueuesPerPort - 1)
	sumNAlpha := float64(float64(n) * s.Alpha)

	steady := s.Alpha * float64(s.B) / (1 + sumNAlpha + s.Alpha)
	growth := r - muIP
	if growth <= 0 {
		// The burst never backs up: tolerance is effectively the whole
		// remaining buffer; report the steady allocation as the paper does.
		return units.ByteCount(steady)
	}
	if growth <= mu {
		// Case 1: thresholds fall slower than queues drain; the burst
		// reaches its steady-state allocation without transient drops.
		return units.ByteCount(steady)
	}
	// Case 2 (Eq. 8).
	denom := 1 + s.Alpha*(growth-mu)/growth
	bt := s.Alpha * float64(s.B) / ((1 + sumNAlpha + s.Alpha) * denom)
	return units.ByteCount(bt)
}

// ABMBurstTolerance evaluates ABM's burst tolerance. Two mechanisms
// stack:
//
//  1. The transient analysis (Eqs. 10-11) with the configured alpha:
//     the burst's own priority sees n_p = 1, so the tolerance is
//     independent of other-priority congestion.
//  2. The §3.3 unscheduled prioritization: Theorem 2 bounds every
//     background priority to B·alpha/(1+alpha), so at least the
//     complement is guaranteed free, and a burst admitted with
//     AlphaBurst (64) can claim an AlphaBurst/(1+AlphaBurst) share of
//     that guaranteed headroom regardless of the buffer state.
//
// The result is capped by Theorem 2 for the burst priority — this is
// what makes ABM's tolerance *predictable*: every term depends only on
// configured alphas, not on how many ports or queues happen to be
// congested.
func (s BurstScenario) ABMBurstTolerance() units.ByteCount {
	s.validate()
	alphaB := s.AlphaBurst
	if alphaB <= 0 {
		alphaB = s.Alpha
	}
	r := float64(s.BurstRate)
	muIP := s.muBurst()
	mu := s.aggregateDrain()
	gamma := muIP / float64(s.PortRate) // mu/b of the bursting queue
	sumAlpha := 2 * s.Alpha             // background priority + burst priority

	growth := r - muIP
	var bt float64
	if growth <= 0 || growth <= mu {
		// Case 1 (Eq. 10): steady-state allocation, n_p = 1.
		bt = s.Alpha * float64(s.B) * gamma / (1 + sumAlpha)
	} else {
		// Case 2 (Eq. 11).
		denom := (1 + sumAlpha) * (1 + s.Alpha*gamma*(growth-mu)/growth)
		bt = s.Alpha * float64(s.B) * gamma / denom
	}

	// §3.3: the guaranteed-free headroom the unscheduled burst can claim.
	guaranteedFree := float64(s.B) - float64(ABMMaxAllocation(s.B, s.Alpha))
	if opt := guaranteedFree * alphaB / (1 + alphaB); opt > bt {
		bt = opt
	}

	if cap := float64(ABMMaxAllocation(s.B, alphaB)); bt > cap {
		bt = cap
	}
	if bt < 0 {
		bt = 0
	}
	return units.ByteCount(bt)
}
