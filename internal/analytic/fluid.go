package analytic

import (
	"fmt"

	"abm/internal/units"
)

// FluidQueue is one queue in the numerical fluid model of Appendix A:
// an arrival rate, a drain rate, and the omega multiplier that turns
// the remaining buffer into its threshold (omega = alpha for DT,
// omega = alpha/n * mu/b for ABM, Definition 1).
type FluidQueue struct {
	Omega   float64
	Arrival units.Rate // offered load
	Drain   units.Rate // service rate gamma * b

	// State (bytes), advanced by FluidModel.Step.
	Len       float64
	Threshold float64

	// DroppedBytes accumulates fluid discarded above the threshold.
	DroppedBytes float64
}

// FluidModel numerically integrates the coupled threshold/queue ODEs of
// Appendix A (Eqs. 20-21): every queue's threshold is
// omega * (B - Q(t)), queues grow at min(arrival, threshold headroom)
// and drain at their service rate. Step integrates with an adaptive
// Heun (explicit trapezoidal) scheme — the Euler predictor and the
// trapezoidal corrector form an embedded first/second-order pair whose
// disagreement drives substep halving — so a caller may pass epoch-sized
// steps (the hybrid engine does) without losing the fixed point. The
// model is deterministic and packet-free, serving as ground truth
// between the closed forms and the packet simulator.
type FluidModel struct {
	B      units.ByteCount
	Queues []*FluidQueue

	// ErrTol is the per-substep occupancy error tolerance in bytes for
	// the adaptive integrator; zero selects 1e-4 * B, floored at 64
	// bytes (packet-scale errors are below the model's own fidelity).
	ErrTol float64

	now units.Time

	// Integrator scratch, sized to len(Queues) on first Step.
	y0, y1, y2, thr, d1, d2 []float64
}

// NewFluidModel builds a model over the given buffer.
func NewFluidModel(b units.ByteCount, queues ...*FluidQueue) *FluidModel {
	if b <= 0 {
		panic("analytic: fluid model needs a buffer")
	}
	return &FluidModel{B: b, Queues: queues}
}

// Now returns the model clock.
func (m *FluidModel) Now() units.Time { return m.now }

// Occupancy returns the total fluid in the buffer.
func (m *FluidModel) Occupancy() float64 {
	var q float64
	for _, fq := range m.Queues {
		q += fq.Len
	}
	return q
}

// applyEuler applies one explicit-Euler update of the clamped Appendix A
// dynamics over sec seconds: thresholds from the occupancy at the start
// of the substep, fluid above a threshold discarded on arrival (admission
// control gates growth, it does not evict), queues never drained below
// empty. Reads lengths from src and writes next lengths to dst, per-queue
// dropped bytes to drops, and the start-of-substep thresholds to thrOut
// (which may be nil). Free of side effects on the model so a rejected
// substep costs nothing.
func (m *FluidModel) applyEuler(src, dst, drops, thrOut []float64, sec float64) {
	var occ float64
	for _, l := range src {
		occ += l
	}
	remaining := float64(m.B) - occ
	if remaining < 0 {
		remaining = 0
	}
	for i, fq := range m.Queues {
		thr := fq.Omega * remaining
		if thrOut != nil {
			thrOut[i] = thr
		}
		in := float64(float64(fq.Arrival) / 8 * sec)
		out := float64(float64(fq.Drain) / 8 * sec)
		l := src[i]
		if out > l+in {
			out = l + in
		}
		next := l + in - out
		var dropped float64
		if next > thr {
			admitted := thr
			if l-out > admitted {
				admitted = l - out // already above: only drain shrinks it
			}
			dropped = next - admitted
			next = admitted
		}
		if next < 0 {
			next = 0
		}
		dst[i] = next
		drops[i] = dropped
	}
}

func (m *FluidModel) ensureScratch() {
	if len(m.y0) == len(m.Queues) {
		return
	}
	n := len(m.Queues)
	m.y0 = make([]float64, n)
	m.y1 = make([]float64, n)
	m.y2 = make([]float64, n)
	m.thr = make([]float64, n)
	m.d1 = make([]float64, n)
	m.d2 = make([]float64, n)
}

// maxHalvings bounds adaptive substep refinement: substeps never shrink
// below dt/2^maxHalvings, so a Step call always terminates.
const maxHalvings = 20

// Step advances the model by dt using the adaptive Heun scheme: each
// substep runs an Euler predictor and a trapezoidal corrector (the
// average of the Euler increments at both endpoints); their disagreement
// is the local error estimate, halving the substep until it falls under
// ErrTol. Both stages apply the same clamped update rule, so thresholds,
// admission drops, and conservation (inflow = Δlen + outflow + drops)
// are exact per committed substep, and the clamped-at-threshold fixed
// point has zero estimated error — steady state integrates at full
// stride no matter how large dt is.
func (m *FluidModel) Step(dt units.Time) {
	if dt <= 0 {
		return
	}
	m.ensureScratch()
	tol := m.ErrTol
	if tol <= 0 {
		tol = 1e-4 * float64(m.B)
		if tol < 64 {
			tol = 64
		}
	}
	for i, fq := range m.Queues {
		m.y0[i] = fq.Len
	}
	total := dt.Seconds()
	elapsed := 0.0
	h := total
	minH := total / float64(int64(1)<<maxHalvings)
	for {
		rem := total - elapsed
		if rem <= total*1e-12 {
			break
		}
		if h > rem {
			h = rem
		}
		m.applyEuler(m.y0, m.y1, m.d1, m.thr, h) // predictor
		m.applyEuler(m.y1, m.y2, m.d2, nil, h)   // endpoint slope
		errMax := 0.0
		for i := range m.y2 {
			corr := float64(0.5 * (m.y0[i] + m.y2[i])) // y0 + avg of the two increments
			if e := corr - m.y1[i]; e > errMax {
				errMax = e
			} else if -e > errMax {
				errMax = -e
			}
			m.y2[i] = corr
		}
		if errMax > tol && h > minH {
			h /= 2
			continue
		}
		for i, fq := range m.Queues {
			fq.DroppedBytes += float64(0.5 * (m.d1[i] + m.d2[i]))
			fq.Threshold = m.thr[i]
			fq.Len = m.y2[i]
			m.y0[i] = m.y2[i]
		}
		elapsed += h
		if errMax < tol/4 {
			h *= 2
		}
	}
	m.now += dt
}

// Run advances the model until the given time with the given step.
func (m *FluidModel) Run(until, step units.Time) {
	if step <= 0 {
		panic("analytic: fluid step must be positive")
	}
	for m.now < until {
		m.Step(step)
	}
}

// SteadyState runs the model until the mean occupancy over consecutive
// 100-step windows changes by less than tol bytes (or the deadline
// passes) and returns that mean. Windowed means absorb the limit cycle
// the explicit Euler step produces around the fixed point.
func (m *FluidModel) SteadyState(deadline, step units.Time, tol float64) (float64, error) {
	const window = 100
	prev := m.Occupancy()
	first := true
	for m.now < deadline {
		var sum float64
		for i := 0; i < window; i++ {
			m.Step(step)
			sum += m.Occupancy()
		}
		cur := sum / window
		if !first {
			if diff := cur - prev; diff < tol && diff > -tol {
				return cur, nil
			}
		}
		first = false
		prev = cur
	}
	return prev, fmt.Errorf("analytic: no steady state before %v", deadline)
}
