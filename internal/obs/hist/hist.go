// Package hist provides the deterministic log-bucketed histogram the
// telemetry plane records distributions into: FCT slowdown per flow
// class, queue occupancy and queueing delay, admission headroom, and
// hybrid-engine residency.
//
// The bucket layout is fixed at compile time and purely integral, so a
// histogram's state is a function of the multiset of recorded values
// alone: counts are int64, merging is element-wise addition (which
// commutes), and no recording order, shard partition, or wall clock can
// change a snapshot's bytes. That is the property the shard-invariance
// tests pin: a sweep recorded at -shards 1, 2 and 4 produces identical
// snapshots.
//
// # Layout
//
// Index 0 absorbs every value <= 0. Values 1..15 get exact one-value
// buckets (the linear region — small integer measurements like
// milli-slowdowns near 1.0x resolve exactly). From 16 up, each power-
// of-two octave splits into 4 sub-buckets, giving a worst-case relative
// width of 25%. The top index is 255 (values up to 2^63-1), so the
// whole array is a flat [252]int64.
package hist

import (
	"math"
	"math/bits"
)

// NumBuckets is the fixed bucket count of every histogram: 1 bucket
// for <=0, 15 exact linear buckets, and 4*(62-4+1) log sub-buckets up
// to the top positive int64 octave.
const NumBuckets = 252

const (
	linearMax = 16 // values below this index themselves
	subPerOct = 4  // sub-buckets per power-of-two octave
)

// BucketOf maps a recorded value to its bucket index. Pure integer
// arithmetic: deterministic on every platform.
func BucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	if v < linearMax {
		return int(v)
	}
	o := bits.Len64(uint64(v)) - 1 // octave, >= 4
	sub := int((uint64(v) >> (uint(o) - 2)) & 3)
	return linearMax + (o-4)*subPerOct + sub
}

// UpperEdge returns the largest value bucket i holds (inclusive). Edge
// 0 for the <=0 bucket; math.MaxInt64 caps the top bucket.
func UpperEdge(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i < linearMax:
		return int64(i)
	}
	k := i - linearMax
	o := uint(4 + k/subPerOct)
	sub := int64(k % subPerOct)
	if o >= 62 {
		// (4+sub+1)<<(o-2) can overflow in the top octave; the final
		// sub-bucket's edge is exactly MaxInt64.
		hi := (uint64(4+sub+1) << (o - 2)) - 1
		if hi > math.MaxInt64 {
			return math.MaxInt64
		}
		return int64(hi)
	}
	return (4+sub+1)<<(o-2) - 1
}

// Histogram is one distribution: fixed buckets, an exact count, and an
// exact sum. The zero value is ready to use. Like a nil obs.Sink, the nil
// receiver is the disabled instrument: Record on nil is a single-branch
// no-op that inlines, so uninstrumented runs pay nothing and the hot
// path stays allocation-free (pinned by TestSteadyStateZeroAlloc).
type Histogram struct {
	counts [NumBuckets]int64
	count  int64
	sum    int64
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	h.counts[BucketOf(v)]++
	h.count++
	h.sum += v
}

// Count returns the number of recorded observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the exact sum of recorded observations (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Add merges o into h element-wise. Addition commutes, so any merge
// order yields the same state.
func (h *Histogram) Add(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.count += o.count
	h.sum += o.sum
}

// Snapshot captures the current state as a sparse, JSON-stable value.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{}
	if h == nil {
		return s
	}
	s.Count = h.count
	s.Sum = h.sum
	for i, n := range h.counts {
		if n != 0 {
			s.Buckets = append(s.Buckets, [2]int64{int64(i), n})
		}
	}
	return s
}

// Snapshot is a histogram's serialized state: sparse [index, count]
// pairs in ascending index order plus the exact count and sum. It is
// the unit that rides in runner records and telemetry bundles, and the
// input to order-invariant merging.
type Snapshot struct {
	Count   int64      `json:"count"`
	Sum     int64      `json:"sum"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// Merge returns the element-wise sum of s and o, again in ascending
// index order. Merge is commutative and associative, so folding any
// permutation of shard or worker snapshots yields identical bytes.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	var h Histogram
	h.addSnapshot(s)
	h.addSnapshot(o)
	return h.Snapshot()
}

func (h *Histogram) addSnapshot(s Snapshot) {
	h.count += s.Count
	h.sum += s.Sum
	for _, b := range s.Buckets {
		if i := b[0]; i >= 0 && i < NumBuckets {
			h.counts[i] += b[1]
		}
	}
}

// Quantile returns the upper edge of the bucket holding the q-th
// quantile observation (q in [0,1]), or 0 on an empty snapshot. Rank
// arithmetic is integral, so the answer is deterministic.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count <= 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += b[1]
		if seen >= rank {
			return UpperEdge(int(b[0]))
		}
	}
	return UpperEdge(NumBuckets - 1)
}
