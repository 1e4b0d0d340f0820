// Package eventq implements the priority queue that drives the
// discrete-event simulator: a bucketed calendar ordered by firing time
// with insertion order as tie-break, so simultaneous events execute
// deterministically in the order they were scheduled, plus FIFO delay
// lines for events that are always scheduled a fixed delay ahead.
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
// A delay line (Line, PushLine) bypasses all three: it is a ring of
// {time, seq, fn, arg} entries for one fixed delay d, appended at the
// tail and popped at the head, never in the arena. A link's deliveries
// are its use: every push is at now+d with now nondecreasing and seq
// increasing, so the ring is sorted by (time, seq) by construction. A
// push that would land behind the tail (the caller's clock went
// backwards) takes the calendar instead, under the same seq. Line
// events return no handle and cannot be canceled; they count in Len.
//
// # Ordering
//
// Invariant: near holds every queued calendar event whose bucket is
// <= cur, except far residents; wheel slot b&wheelMask holds only
// absolute bucket b with cur < b < cur+wheelSize; far holds events that
// were at least wheelSize buckets ahead when pushed; every line is
// sorted by (time, seq). Every wheel resident is therefore later than
// every near resident, so whenever near is non-empty the global minimum
// under (time, seq) is the smallest of the near root, the far root and
// the line heads; when near is empty, cur advances to the next
// non-empty wheel bucket first (even when a line head is earlier). cur
// only moves forward: to the next non-empty bucket, or — when near and
// wheel are both empty — to the bucket of the far or line event being
// popped. A bounded pop or a peek may advance cur past the caller's
// clock; that is harmless, since a later push at or behind cur simply
// goes to near. The pop sequence is exactly the sequence a single flat
// heap would produce; which structure held an event is invisible.
//
// The constants are fixed from the traffic this repository simulates:
// serialization takes 51 ns-1.2 us at 10 G and timers are >= 80 us
// out, so with 1024 ps buckets and a 33.5 us horizon per-packet
// serialization events take the wheel and only timers reach far. Link
// deliveries take their line whatever the delay, so the horizon does
// not bound them. The wheel stays 2^15 buckets wide because the
// parallel engine injects window-barrier deliveries into the calendar
// up to one lookahead (one link delay) ahead. Stats makes the split
// visible.
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

// lineEntry is one queued delay-line event. It carries its own payload:
// line events never touch the arena.
type lineEntry struct {
	time units.Time
	seq  uint64
	fn   func(any)
	arg  any
}

// line is a FIFO delay line: a power-of-two ring holding events in
// (time, seq) order, oldest at head.
type line struct {
	delay units.Time // the delay the line was registered for
	ring  []lineEntry
	head  int // ring index of the oldest entry
	n     int // queued entries
	tail  units.Time
}

// grow doubles the ring, unrolling it so the oldest entry is at 0.
func (ln *line) grow() {
	ring := make([]lineEntry, max(16, 2*len(ln.ring)))
	k := copy(ring, ln.ring[ln.head:])
	copy(ring[k:], ln.ring[:ln.head])
	ln.ring, ln.head = ring, 0
}

// LineID names one of a queue's delay lines (see Line).
type LineID int32

// Stats counts calendar traffic since the queue was created: which
// structure each push went to, and how many wheel buckets were poured
// into near. Far close to the calendar's total (Line aside) means the
// workload's calendar delays exceed the wheel's horizon and the queue
// is running at flat-heap cost.
type Stats struct {
	Near, Wheel, Far uint64 // pushes by destination structure
	Line             uint64 // pushes appended to a delay line
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
	lines  []line   // delay lines, indexed by LineID
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

// Line returns the delay line for the fixed delay d, creating it on
// first use: every caller asking for the same delay shares one line.
func (q *Queue) Line(d units.Time) LineID {
	for i := range q.lines {
		if q.lines[i].delay == d {
			return LineID(i)
		}
	}
	q.lines = append(q.lines, line{delay: d})
	return LineID(len(q.lines) - 1)
}

// PushLine schedules fn(arg) on line id at now plus the line's delay.
// It takes the next sequence number exactly as PushArg does, so the pop
// order is the one PushArg(now+delay, fn, arg) would give. With now
// nondecreasing the push lands at the line's tail; one behind the tail
// (now went backwards) goes to the calendar instead, which keeps the
// line sorted. There is no handle: a line event cannot be canceled.
func (q *Queue) PushLine(id LineID, now units.Time, fn func(any), arg any) {
	q.seq++
	ln := &q.lines[id]
	t := now + ln.delay
	if ln.n > 0 && t < ln.tail {
		q.PushSeqArg(t, q.seq, fn, arg)
		return
	}
	if ln.n == len(ln.ring) {
		ln.grow()
	}
	// Field by field: a composite literal is staged on the stack and
	// copied, which costs a store-forwarding stall per push.
	e := &ln.ring[(ln.head+ln.n)&(len(ln.ring)-1)]
	e.time, e.seq, e.fn, e.arg = t, q.seq, fn, arg
	ln.n++
	ln.tail = t
	q.live++
	q.stats.Line++
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

// Sources head reports besides a line index (>= 0).
const (
	srcNone = -3
	srcNear = -2
	srcFar  = -1
)

// head discards canceled events at the heap roots, refills near from
// the wheel when it is empty, and returns where the earliest live event
// is — srcNear, srcFar or a line index, srcNone for an empty queue —
// together with its key (slot is meaningful for the heaps only).
func (q *Queue) head() (src int, k entry) {
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
	src = srcNone
	if len(q.near) > 0 {
		src, k = srcNear, q.near[0]
	}
	for len(q.far) > 0 {
		f := q.far[0]
		if !q.nodes[f.slot].canceled {
			if src == srcNone || f.less(k) {
				src, k = srcFar, f
			}
			break
		}
		q.release(f.slot)
		q.far.popMin()
	}
	for i := range q.lines {
		ln := &q.lines[i]
		if ln.n == 0 {
			continue
		}
		e := &ln.ring[ln.head]
		if src == srcNone || e.time < k.time || e.time == k.time && e.seq < k.seq {
			src, k = i, entry{time: e.time, seq: e.seq}
		}
	}
	return src, k
}

// take removes the event head named (src, k) and returns its callback
// pair. A heap event's slot is released first, so handles to it stop
// reporting Scheduled even before the callback is invoked.
func (q *Queue) take(src int, k entry) (fn func(any), arg any) {
	if src >= 0 {
		ln := &q.lines[src]
		e := &ln.ring[ln.head]
		fn, arg = e.fn, e.arg
		ln.head = (ln.head + 1) & (len(ln.ring) - 1)
		ln.n--
		q.live--
	} else {
		if src == srcNear {
			q.near.popMin()
		} else {
			q.far.popMin()
		}
		nd := &q.nodes[k.slot]
		fn, arg = nd.fn, nd.arg
		q.release(k.slot)
	}
	if len(q.near) == 0 && q.wheelN == 0 {
		// Only far and line events remain: jump the wheel's window to
		// the popped event so its successors land in the wheel.
		if b := int64(k.time) >> bucketShift; b > q.cur {
			q.cur = b
		}
	}
	return fn, arg
}

// Pop removes the earliest non-canceled event and returns its callback
// pair and firing time. ok is false if the queue holds no live events.
func (q *Queue) Pop() (fn func(any), arg any, t units.Time, ok bool) {
	src, k := q.head()
	if src == srcNone {
		return nil, nil, 0, false
	}
	fn, arg = q.take(src, k)
	return fn, arg, k.time, true
}

// PopLE pops the earliest live event only if it fires at or before
// limit; otherwise the event stays queued and ok is false. It fuses
// the PeekTime+Pop pair of a bounded run loop into one head selection.
func (q *Queue) PopLE(limit units.Time) (fn func(any), arg any, t units.Time, ok bool) {
	src, k := q.head()
	if src == srcNone || k.time > limit {
		return nil, nil, 0, false
	}
	fn, arg = q.take(src, k)
	return fn, arg, k.time, true
}

// PopLT is PopLE with a strict bound: only events firing strictly
// before limit are popped.
func (q *Queue) PopLT(limit units.Time) (fn func(any), arg any, t units.Time, ok bool) {
	src, k := q.head()
	if src == srcNone || k.time >= limit {
		return nil, nil, 0, false
	}
	fn, arg = q.take(src, k)
	return fn, arg, k.time, true
}

// PeekTime returns the firing time of the earliest non-canceled event
// without removing it. Canceled events at the heap roots are
// discarded.
func (q *Queue) PeekTime() (units.Time, bool) {
	src, k := q.head()
	return k.time, src != srcNone
}

// release returns a slot to the free list, invalidating all handles to
// the event it held. fn/arg are deliberately left in place: clearing
// them costs two write barriers per event, and the values they can
// reference (prebound callbacks, pooled packets) are immortal in this
// codebase, so a stale reference pins no memory the pools would not.
// Popped line entries keep theirs for the same reason.
func (q *Queue) release(slot int32) {
	nd := &q.nodes[slot]
	nd.gen++
	nd.canceled = false
	q.free = append(q.free, slot)
	q.live--
}
