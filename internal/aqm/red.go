package aqm

import (
	"math/rand"

	"abm/internal/units"
)

// RED is Random Early Detection (Floyd & Jacobson 1993): an EWMA of the
// queue length drives a marking/dropping probability that rises linearly
// from 0 at MinTh to MaxP at MaxTh; above MaxTh every packet is marked
// or dropped.
type RED struct {
	MinTh units.ByteCount // below: always enqueue
	MaxTh units.ByteCount // above: always mark/drop
	MaxP  float64         // probability at MaxTh
	Wq    float64         // EWMA weight for the average queue, e.g. 0.002

	avg     float64
	count   int // packets since last mark, for uniformized spacing
	started bool
}

// NewRED returns a RED instance with classic defaults for any zero field.
func NewRED(minTh, maxTh units.ByteCount) *RED {
	r := &RED{MinTh: minTh, MaxTh: maxTh, MaxP: 0.1, Wq: 0.002}
	if r.MinTh <= 0 {
		r.MinTh = 30 * units.Kilobyte
	}
	if r.MaxTh <= r.MinTh {
		r.MaxTh = 3 * r.MinTh
	}
	return r
}

// Name implements Policy.
func (r *RED) Name() string { return "red" }

// Avg exposes the EWMA queue estimate for tests.
func (r *RED) Avg() float64 { return r.avg }

// OnArrival implements Policy.
func (r *RED) OnArrival(ctx *Ctx, rng *rand.Rand) Decision {
	if !r.started {
		r.avg = float64(ctx.QueueLen)
		r.started = true
	} else {
		r.avg = float64((1-r.Wq)*r.avg) + float64(r.Wq*float64(ctx.QueueLen))
	}
	switch {
	case r.avg < float64(r.MinTh):
		r.count = 0
		return Enqueue
	case r.avg >= float64(r.MaxTh):
		r.count = 0
		return r.congest(ctx)
	default:
		frac := (r.avg - float64(r.MinTh)) / float64(r.MaxTh-r.MinTh)
		pb := r.MaxP * frac
		// Uniformize mark spacing as in the original paper.
		pa := pb / (1 - float64(float64(r.count)*pb))
		r.count++
		if pa < 0 || pa >= 1 || rng.Float64() < pa {
			r.count = 0
			return r.congest(ctx)
		}
		return Enqueue
	}
}

func (r *RED) congest(ctx *Ctx) Decision {
	if ctx.ECNCapable {
		return Mark
	}
	return Drop
}
