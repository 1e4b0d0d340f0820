package analytic

import (
	"fmt"

	"abm/internal/units"
)

// TransientScenario is the Appendix A.4 setting: an ABM-managed buffer
// in steady state when, at t=0, a set of new queues starts receiving
// traffic at rate r each. Theorems 4 and 5 bound the time t1 until a
// new queue experiences its first drop.
//
// Queues are described by their omega values (Definition 1): OldOmegas
// are the ω of the pre-existing congested queues (the set S_old = G_ne,
// assuming constant drain rates so G_e is empty, as the appendix
// requires for guarantees); NewOmegas are the ω of the queues the
// change introduces (S_new).
type TransientScenario struct {
	B units.ByteCount

	OldOmegas []float64
	NewOmegas []float64

	// ArrivalRate is r, the offered rate at each new queue; Drain is the
	// drain rate gamma*b of each new queue. Both in bits/s.
	ArrivalRate units.Rate
	Drain       units.Rate

	// OldDrain is the aggregate drain rate of the pre-existing congested
	// queues, used by the Case-2 bound.
	OldDrain units.Rate
}

func (s TransientScenario) validate() {
	if s.B <= 0 || s.ArrivalRate <= 0 || s.Drain < 0 || len(s.NewOmegas) == 0 {
		panic(fmt.Sprintf("analytic: invalid transient scenario %+v", s))
	}
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// CaseBoundary returns the arrival rate separating Case 1 (existing
// queues track their falling thresholds, Eq. 28) from Case 2 (they
// cannot, Eq. 38), for the scenario's drain rates.
func (s TransientScenario) CaseBoundary() units.Rate {
	s.validate()
	sumOld := sum(s.OldOmegas)
	nNew := float64(len(s.NewOmegas))
	// Eq. 28 with gamma-sums replaced by aggregate drain rates:
	// r <= (drain of affected+new)/|S_new| + oldDrain*(1+sumOld)/(sumOld*|S_new|).
	term1 := float64(s.Drain) * nNew / nNew // each new queue drains at Drain
	if sumOld == 0 {
		return units.Rate(term1)
	}
	term2 := float64(s.OldDrain) * (1 + sumOld) / (sumOld * nNew)
	return units.Rate(term1 + term2)
}

// ZeroDropTime returns t1, the time during which a new queue is
// guaranteed zero transient drops, choosing Theorem 4 (Case 1, Eq. 34)
// or Theorem 5 (Case 2, Eq. 39/40) by the arrival rate.
func (s TransientScenario) ZeroDropTime() units.Time {
	s.validate()
	growth := float64(s.ArrivalRate - s.Drain)
	if growth <= 0 {
		return units.Time(1<<62 - 1) // never backs up
	}
	omegaNew := s.NewOmegas[0]
	sumOld := sum(s.OldOmegas)
	bBits := float64(s.B.Bits())

	if s.ArrivalRate <= s.CaseBoundary() {
		// Theorem 4, Eq. 34: t1 = omega*B / ((r-γ)·(1 + Σ_old ω + ω·|S_new|)).
		denom := growth * (1 + sumOld + float64(omegaNew*float64(len(s.NewOmegas))))
		return secondsToTime(omegaNew * bBits / denom)
	}
	// Theorem 5, Eq. 39: t1 = ω·B / (X2·Y2) with X2 = 1 + Σ_old ω and
	// Y2 = (r−γ) + ω·(Σ_{S_old}(−γ) + Σ_{S_new}(r−γ))
	//    = (r−γ) + ω·((r−γ)·|S_new| − oldDrain).
	x2 := 1 + sumOld
	y2 := growth + float64(omegaNew*(float64(growth*float64(len(s.NewOmegas)))-float64(s.OldDrain)))
	if y2 <= 0 {
		// The aggregate drain outruns the burst: thresholds rise, the new
		// queue never hits its threshold.
		return units.Time(1<<62 - 1)
	}
	return secondsToTime(omegaNew * bBits / (x2 * y2))
}

// BurstTolerance returns r·t1, Appendix A.8's burst-tolerance
// definition (Eq. 42), capped at the buffer size.
func (s TransientScenario) BurstTolerance() units.ByteCount {
	t1 := s.ZeroDropTime()
	if t1 >= units.Time(1<<62-1) {
		return s.B
	}
	bt := units.ByteCount(float64(s.ArrivalRate) / 8 * t1.Seconds())
	if bt > s.B {
		bt = s.B
	}
	return bt
}

func secondsToTime(sec float64) units.Time {
	if sec < 0 {
		return 0
	}
	t := sec * float64(units.Second)
	if t > float64(1<<62-1) {
		return units.Time(1<<62 - 1)
	}
	return units.Time(t)
}
