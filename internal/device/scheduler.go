package device

import "math/bits"

// Scheduler selects the next queue a port should serve. Implementations
// must return nil only when every queue is empty.
type Scheduler interface {
	Name() string
	// Next picks a non-empty queue among qs — one port's view into the
	// switch's contiguous queue array — or nil.
	Next(qs []Queue) *Queue
}

// RoundRobin serves non-empty queues in rotating order, one packet per
// turn — the schedule the paper assumes when it derives mu/b = 1/k for k
// active queues (§3.4).
type RoundRobin struct {
	last int
}

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return "rr" }

// Next implements Scheduler.
func (r *RoundRobin) Next(qs []Queue) *Queue {
	idx := r.last
	for range qs {
		if idx++; idx >= len(qs) {
			idx = 0
		}
		if qs[idx].Len() > 0 {
			r.last = idx
			return &qs[idx]
		}
	}
	return nil
}

// StrictPriority always serves the lowest-index non-empty queue; queue 0
// is the highest priority.
type StrictPriority struct{}

// Name implements Scheduler.
func (StrictPriority) Name() string { return "strict" }

// Next implements Scheduler.
func (StrictPriority) Next(qs []Queue) *Queue {
	for i := range qs {
		if qs[i].Len() > 0 {
			return &qs[i]
		}
	}
	return nil
}

// DWRR is deficit weighted round robin: the scheduler visits queues in
// order; entering a queue grants it weight*Quantum credit once, and the
// queue is served packet by packet while its deficit covers the head
// packet, then the visit moves on. Higher weights drain proportionally
// faster; equal weights degrade to round robin.
type DWRR struct {
	Weights []int // per-queue weight; missing entries default to 1
	Quantum int64 // bytes of credit per weight unit per visit, default MTU

	deficits   []int64
	backlog    []uint64 // per call: bit i set when queue i holds packets
	cur        int
	needCredit bool
	inited     bool
}

// Name implements Scheduler.
func (d *DWRR) Name() string { return "dwrr" }

// Next implements Scheduler.
func (d *DWRR) Next(qs []Queue) *Queue {
	n := len(qs)
	if !d.inited {
		d.deficits = make([]int64, n)
		d.backlog = make([]uint64, (n+63)/64)
		d.needCredit = true
		d.inited = true
	}
	if d.Quantum <= 0 {
		d.Quantum = 1500
	}
	// One scan of the port's queues per call; the visits below test the
	// bits instead of reading every queue again.
	backlog, anyBacklog := d.backlog, false
	clear(backlog)
	for i := range qs {
		if qs[i].Len() > 0 {
			backlog[i>>6] |= 1 << (i & 63)
			anyBacklog = true
		}
	}
	if !anyBacklog {
		return nil
	}
	// Each full cycle adds at least weight*Quantum to any visited
	// backlogged queue, so the deficit eventually covers any head packet;
	// 16 cycles cover heads up to 16*Quantum with weight 1.
	for iter := 0; iter < 16*n; iter++ {
		if backlog[d.cur>>6]&(1<<(d.cur&63)) == 0 {
			d.deficits[d.cur] = 0
			d.advance(n)
			continue
		}
		if d.needCredit {
			d.deficits[d.cur] += d.weight(d.cur) * d.Quantum
			d.needCredit = false
		}
		q := &qs[d.cur]
		head := int64(q.fifo.Head().Size())
		if d.deficits[d.cur] >= head {
			d.deficits[d.cur] -= head
			return q
		}
		d.advance(n)
	}
	for w, word := range backlog {
		if word != 0 {
			return &qs[w<<6|bits.TrailingZeros64(word)]
		}
	}
	return nil
}

func (d *DWRR) advance(n int) {
	if d.cur++; d.cur == n {
		d.cur = 0
	}
	d.needCredit = true
}

func (d *DWRR) weight(i int) int64 {
	if i < len(d.Weights) && d.Weights[i] > 0 {
		return int64(d.Weights[i])
	}
	return 1
}

// NormShare returns the long-run bandwidth share of queue prio among the
// given set of active queues under this scheduler. Used by the
// share-based drain-rate estimator.
func NormShare(s Scheduler, active []int, prio int) float64 {
	if len(active) == 0 {
		return 1
	}
	switch sch := s.(type) {
	case *DWRR:
		var total, mine int64
		for _, a := range active {
			w := sch.weight(a)
			total += w
			if a == prio {
				mine = w
			}
		}
		if total == 0 {
			return 1
		}
		if mine == 0 {
			// prio not in the active set: it would get its weight share if
			// it became active.
			mine = sch.weight(prio)
			total += mine
		}
		return float64(mine) / float64(total)
	case StrictPriority:
		// The highest-priority active queue takes the full port.
		best := active[0]
		for _, a := range active {
			if a < best {
				best = a
			}
		}
		if prio <= best {
			return 1
		}
		return 0.01 // starved, but keep thresholds non-zero
	default: // round robin
		in := false
		for _, a := range active {
			if a == prio {
				in = true
				break
			}
		}
		n := len(active)
		if !in {
			n++
		}
		return 1 / float64(n)
	}
}
