// Package eventq implements the priority queue that drives the
// discrete-event simulator: a bucketed calendar ordered by firing time
// with insertion order as tie-break, so simultaneous events execute
// deterministically in the order they were scheduled.
//
// # Design
//
// Events live in an index-based arena ([]node) addressed by int32
// slots, so scheduling performs no per-event heap allocation and no
// interface conversions. Time is cut into buckets of 2^bucketShift ps
// and cur names the bucket being executed. Three structures hold the
// slots, chosen at push time by the event's bucket b:
//
//   - near (b <= cur): a small 4-ary min-heap of the events of the
//     current bucket, plus any later push that lands at or behind it.
//   - wheel (cur < b < cur+wheelSize): one unsorted intrusive list per
//     bucket, indexed by b&wheelMask, with a bitmap of non-empty
//     buckets. Push is O(1); when near runs dry, a bitmap scan finds
//     the next non-empty bucket, cur moves to it and its list is poured
//     into near (canceled nodes are dropped there).
//   - far (b >= cur+wheelSize): a 4-ary min-heap for everything beyond
//     the wheel's horizon — retransmission timers, tickers, pre-planned
//     flow arrivals. Its residents stay until they are popped.
//
// # Ordering
//
// Invariant: near holds every queued event whose bucket is <= cur,
// except far residents; wheel slot b&wheelMask holds only absolute
// bucket b with cur < b < cur+wheelSize; far holds events that were at
// least wheelSize buckets ahead when pushed. Every wheel resident is
// therefore later than every near resident, so whenever near is
// non-empty the global minimum under (time, seq) is the smaller of the
// near root and the far root; when near is empty, cur advances to the
// next non-empty wheel bucket first. cur only moves forward: to the
// next non-empty bucket, or — when near and wheel are both empty — to
// the bucket of the far event being popped. A bounded pop or a peek
// may advance cur past the caller's clock; that is harmless, since a
// later push at or behind cur simply goes to near. The pop sequence is
// exactly the sequence a single flat heap would produce; which
// structure held an event is invisible.
//
// The constants are fixed from the traffic this repository simulates:
// serialization takes 51 ns-1.2 us at 10 G, every committed scenario
// uses a 10 us link delay, and timers are >= 80 us out, so with
// 1024 ps buckets and a 33.5 us horizon per-packet events take the
// wheel and only timers reach far. A scenario whose link delay exceeds
// the horizon sends every delivery through far: it runs at flat-heap
// cost, never in a different order (Stats makes that visible).
//
// Fired and discarded slots go onto a LIFO free list and are reused by
// later pushes; reuse is safe because every slot carries a generation
// counter and every Event handle captures the generation it was
// created under.
//
// # Cancel semantics
//
// Cancel is O(1): it only marks the node, and canceled nodes are
// discarded lazily — at a heap root, or when their wheel bucket is
// poured into near. The generation check makes every handle operation
// safe and precise:
//
//   - Cancel on a fired, discarded, or already-canceled event is a
//     no-op, even if the arena slot has since been reused by a new
//     event.
//   - Scheduled reports false as soon as the event is popped, before
//     its callback runs.
//   - Canceled reports true only while the canceled node still
//     occupies the calendar; once it is lazily discarded the handle is
//     stale and Canceled reports false. Use it directly after Cancel.
//
// The zero Event handle is valid and inert: Cancel is a no-op and
// Scheduled/Canceled report false.
package eventq

import (
	"math/bits"

	"abm/internal/units"
)

const (
	bucketShift = 10             // bucket width: 1024 ps
	wheelSize   = 1 << 15        // buckets; horizon = 2^25 ps ~ 33.5 us
	wheelMask   = wheelSize - 1  // bucket -> wheel index
	wheelWords  = wheelSize / 64 // bitmap words
)

// node is one arena slot: the event payload plus calendar bookkeeping.
type node struct {
	time units.Time
	seq  uint64    // push counter (or reserved value): FIFO tie-break
	fn   func(any) // callback
	arg  any

	gen      uint32 // bumped on release; validates handles
	next     int32  // next slot in the wheel bucket's list; -1 ends it
	canceled bool
}

// Event is a cancelable handle to a scheduled event. It is a small
// value (copy freely); the zero value is inert.
type Event struct {
	q    *Queue
	slot int32
	gen  uint32
}

// live returns the node the handle refers to, or nil if the event has
// fired, been discarded, or the handle is zero.
func (e Event) live() *node {
	if e.q == nil {
		return nil
	}
	nd := &e.q.nodes[e.slot]
	if nd.gen != e.gen {
		return nil
	}
	return nd
}

// Cancel marks the event so that it will not fire. Canceling an
// already fired, discarded, or canceled event is a no-op.
func (e Event) Cancel() {
	if nd := e.live(); nd != nil {
		nd.canceled = true
	}
}

// Canceled reports whether the event is canceled and still occupies
// the calendar (see the package comment for the post-discard caveat).
func (e Event) Canceled() bool {
	nd := e.live()
	return nd != nil && nd.canceled
}

// Scheduled reports whether the event is still pending: in the
// calendar, not canceled, and not yet popped for execution.
func (e Event) Scheduled() bool {
	nd := e.live()
	return nd != nil && !nd.canceled
}

// Time returns the event's firing time, or zero if the handle is no
// longer live.
func (e Event) Time() units.Time {
	if nd := e.live(); nd != nil {
		return nd.time
	}
	return 0
}

// entry is one heap element: an arena slot plus a copy of its sort
// key, so sift comparisons stay inside the contiguous heap slice. The
// copy stays valid because a queued node's (time, seq) never changes.
type entry struct {
	time units.Time
	seq  uint64
	slot int32
}

// less orders entries by (time, seq): earliest first, FIFO among
// simultaneous events.
func (a entry) less(b entry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// heap4 is a 4-ary min-heap of entries.
type heap4 []entry

func (h *heap4) push(e entry) {
	s := append(*h, e)
	*h = s
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = e
}

// popMin removes the root. The heap must be non-empty.
func (h *heap4) popMin() {
	s := *h
	n := len(s) - 1
	e := s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if s[c].less(s[best]) {
				best = c
			}
		}
		if !s[best].less(e) {
			break
		}
		s[i] = s[best]
		i = best
	}
	s[i] = e
}

// Stats counts calendar traffic since the queue was created: which
// structure each push went to, and how many wheel buckets were poured
// into near. Far close to the total means the workload's delays exceed
// the wheel's horizon and the queue is running at flat-heap cost.
type Stats struct {
	Near, Wheel, Far uint64 // pushes by destination structure
	Drained          uint64 // wheel buckets poured into near
}

// Queue is a time-ordered event queue. The zero value is ready to use;
// the wheel (~132 KB) is allocated by the first push that needs it.
type Queue struct {
	nodes []node  // arena; handles index into it
	free  []int32 // LIFO free slots (deterministic reuse order)
	seq   uint64
	live  int // queued events, including undiscarded canceled ones

	cur    int64    // current absolute bucket
	near   heap4    // events with bucket <= cur
	far    heap4    // events pushed >= wheelSize buckets ahead
	heads  []int32  // wheel: list head per bucket, valid where bitmap is set
	bitmap []uint64 // wheel: non-empty buckets
	wheelN int      // non-empty wheel buckets
	stats  Stats
}

// Len returns the number of events in the queue, including canceled
// ones that have not yet been discarded.
func (q *Queue) Len() int { return q.live }

// Stats returns the calendar's traffic counters.
func (q *Queue) Stats() Stats { return q.stats }

// callFunc adapts a no-argument callback to the node's fn/arg pair so
// that Push needs no per-event closure: a func() value is
// pointer-shaped and boxes into `any` without allocating.
func callFunc(a any) { a.(func())() }

// Push schedules fn at time t and returns the event handle.
func (q *Queue) Push(t units.Time, fn func()) Event {
	return q.PushArg(t, callFunc, fn)
}

// PushArg schedules fn(arg) at time t. Passing a long-lived fn and a
// pointer-shaped arg makes scheduling allocation-free; this is the hot
// path the simulator's packet pipeline uses.
func (q *Queue) PushArg(t units.Time, fn func(any), arg any) Event {
	q.seq++
	return q.PushSeqArg(t, q.seq, fn, arg)
}

// ReserveSeq consumes and returns the next tie-break sequence number
// without scheduling anything. A later PushSeqArg under that number
// pops exactly where a PushArg made now would have, which lets a
// re-armable timer defer its push without perturbing the order.
func (q *Queue) ReserveSeq() uint64 {
	q.seq++
	return q.seq
}

// PushSeqArg schedules fn(arg) at time t under a sequence number
// obtained from ReserveSeq. Each reserved number may be queued at most
// once at a time, and (t, seq) must not precede an event already
// popped.
func (q *Queue) PushSeqArg(t units.Time, seq uint64, fn func(any), arg any) Event {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		q.nodes = append(q.nodes, node{})
		slot = int32(len(q.nodes) - 1)
	}
	nd := &q.nodes[slot]
	nd.time, nd.seq, nd.fn, nd.arg = t, seq, fn, arg
	q.live++

	b := int64(t) >> bucketShift
	switch d := b - q.cur; {
	case d <= 0:
		q.stats.Near++
		q.near.push(entry{t, seq, slot})
	case d < wheelSize:
		q.stats.Wheel++
		if q.heads == nil {
			q.heads = make([]int32, wheelSize)
			q.bitmap = make([]uint64, wheelWords)
		}
		i := b & wheelMask
		if w, bit := &q.bitmap[i>>6], uint64(1)<<(i&63); *w&bit == 0 {
			*w |= bit
			q.wheelN++
			nd.next = -1
		} else {
			nd.next = q.heads[i]
		}
		q.heads[i] = slot
	default:
		q.stats.Far++
		q.far.push(entry{t, seq, slot})
	}
	return Event{q: q, slot: slot, gen: nd.gen}
}

// Item is one event of a PushBatch call: the arguments of a PushArg,
// as a value so batches can be built, sorted, and injected without
// touching the queue.
type Item struct {
	Time units.Time
	Fn   func(any)
	Arg  any
}

// PushBatch schedules every item in order: items[i] receives a lower
// sequence number than items[i+1], so a batch sorted by (time, key)
// executes in exactly that order among simultaneous events. It is the
// window-barrier injection path of the parallel engine.
func (q *Queue) PushBatch(items []Item) {
	for i := range items {
		q.PushArg(items[i].Time, items[i].Fn, items[i].Arg)
	}
}

// LaneID, NewLane, ReleaseLane, PushLane and PushLaneArg are the
// source-compatibility remains of the per-source lane calendar this
// package used to be: benchmark/ still compiles against them. The lane
// is ignored — every push takes the one calendar — and no model
// package may call them.
type LaneID int32

// NewLane returns a placeholder lane; see LaneID.
func (q *Queue) NewLane() LaneID { return 0 }

// ReleaseLane does nothing; see LaneID.
func (q *Queue) ReleaseLane(LaneID) {}

// PushLane is Push; see LaneID.
func (q *Queue) PushLane(_ LaneID, t units.Time, fn func()) Event { return q.Push(t, fn) }

// PushLaneArg is PushArg; see LaneID.
func (q *Queue) PushLaneArg(_ LaneID, t units.Time, fn func(any), arg any) Event {
	return q.PushArg(t, fn, arg)
}

// advance moves cur to the next non-empty wheel bucket and pours its
// list into near, dropping canceled nodes. The wheel must be non-empty.
func (q *Queue) advance() {
	start := (q.cur + 1) & wheelMask
	w := start >> 6
	word := q.bitmap[w] &^ (uint64(1)<<(start&63) - 1)
	for word == 0 {
		// Wrapping back to the starting word is fine: its low bits are
		// the buckets just under cur+wheelSize, last in scan order.
		w = (w + 1) & (wheelWords - 1)
		word = q.bitmap[w]
	}
	i := w<<6 | int64(bits.TrailingZeros64(word))
	q.bitmap[w] &^= uint64(1) << (i & 63)
	q.wheelN--
	q.cur += 1 + (i-start)&wheelMask
	q.stats.Drained++
	for slot := q.heads[i]; slot >= 0; {
		nd := &q.nodes[slot]
		next := nd.next
		if nd.canceled {
			q.release(slot)
		} else {
			q.near.push(entry{nd.time, nd.seq, slot})
		}
		slot = next
	}
}

// head discards canceled events at the structure heads, refills near
// from the wheel when it is empty, and returns the heap whose root is
// the earliest live event (nil for an empty queue).
func (q *Queue) head() *heap4 {
	for {
		if len(q.near) > 0 {
			slot := q.near[0].slot
			if !q.nodes[slot].canceled {
				break
			}
			q.release(slot)
			q.near.popMin()
		} else if q.wheelN == 0 {
			break
		} else {
			q.advance()
		}
	}
	for len(q.far) > 0 {
		slot := q.far[0].slot
		if !q.nodes[slot].canceled {
			if len(q.near) == 0 || q.far[0].less(q.near[0]) {
				return &q.far
			}
			break
		}
		q.release(slot)
		q.far.popMin()
	}
	if len(q.near) == 0 {
		return nil
	}
	return &q.near
}

// take removes the root of h (as returned by head) and releases its
// slot, so handles to the event stop reporting Scheduled even before
// the callback is invoked.
func (q *Queue) take(h *heap4) (fn func(any), arg any, t units.Time) {
	e := (*h)[0]
	h.popMin()
	if len(q.near) == 0 && q.wheelN == 0 {
		// Only far events remain (this was one): jump the wheel's window
		// to the popped event so its successors land in the wheel.
		if b := int64(e.time) >> bucketShift; b > q.cur {
			q.cur = b
		}
	}
	nd := &q.nodes[e.slot]
	fn, arg = nd.fn, nd.arg
	q.release(e.slot)
	return fn, arg, e.time
}

// Pop removes the earliest non-canceled event and returns its callback
// pair and firing time. ok is false if the queue holds no live events.
func (q *Queue) Pop() (fn func(any), arg any, t units.Time, ok bool) {
	h := q.head()
	if h == nil {
		return nil, nil, 0, false
	}
	fn, arg, t = q.take(h)
	return fn, arg, t, true
}

// PopLE pops the earliest live event only if it fires at or before
// limit; otherwise the event stays queued and ok is false. It fuses
// the PeekTime+Pop pair of a bounded run loop into one head selection.
func (q *Queue) PopLE(limit units.Time) (fn func(any), arg any, t units.Time, ok bool) {
	h := q.head()
	if h == nil || (*h)[0].time > limit {
		return nil, nil, 0, false
	}
	fn, arg, t = q.take(h)
	return fn, arg, t, true
}

// PopLT is PopLE with a strict bound: only events firing strictly
// before limit are popped.
func (q *Queue) PopLT(limit units.Time) (fn func(any), arg any, t units.Time, ok bool) {
	h := q.head()
	if h == nil || (*h)[0].time >= limit {
		return nil, nil, 0, false
	}
	fn, arg, t = q.take(h)
	return fn, arg, t, true
}

// PeekTime returns the firing time of the earliest non-canceled event
// without removing it. Canceled events at the structure heads are
// discarded.
func (q *Queue) PeekTime() (units.Time, bool) {
	h := q.head()
	if h == nil {
		return 0, false
	}
	return (*h)[0].time, true
}

// release returns a slot to the free list, invalidating all handles to
// the event it held. fn/arg are deliberately left in place: clearing
// them costs two write barriers per event, and the values they can
// reference (prebound callbacks, pooled packets) are immortal in this
// codebase, so a stale reference pins no memory the pools would not.
func (q *Queue) release(slot int32) {
	nd := &q.nodes[slot]
	nd.gen++
	nd.canceled = false
	q.free = append(q.free, slot)
	q.live--
}
