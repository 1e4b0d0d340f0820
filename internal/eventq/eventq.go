// Package eventq implements the priority queue that drives the
// discrete-event simulator: one heap ordered by firing time with
// insertion order as tie-break, so simultaneous events execute
// deterministically in the order they were scheduled, plus FIFO delay
// lines for events that are always scheduled a fixed delay ahead.
//
// # Design
//
// Events live in an index-based arena ([]node) addressed by int32
// slots, so scheduling performs no per-event heap allocation and no
// interface conversions. One 4-ary min-heap of (time, seq, slot)
// entries holds every event that no line carries: timers, tickers,
// planned flow arrivals and the serialization ends of a flow's last
// partial segment: under one percent of a packet-heavy run's events.
//
// A delay line (Line, PushLine) bypasses the heap: it is a ring of
// {time, seq, fn, arg} entries for one fixed delay d, appended at the
// tail and popped at the head, never in the arena. A link's deliveries
// and full-size or header-only serialization ends are its uses: every
// push is at now+d with now nondecreasing and seq increasing, so the
// ring is sorted by (time, seq) by construction. A push that would
// land behind the tail (the caller's clock went backwards) takes the
// heap instead, under the same seq. Line events return no handle and
// cannot be canceled; they count in Len.
// Line(d) shares one line among every caller with delay d; NewLine
// makes a private line of delay zero for a caller that pushes at
// explicit times, such as the parallel engine's barrier crossings
// (PushLineBatch).
//
// # Ordering
//
// The heap and every line are sorted by (time, seq), so the global
// minimum is the smallest of the heap root and the line heads. The pop
// sequence is exactly the sequence a single flat heap would produce;
// which structure held an event is invisible. Stats makes the split
// visible.
//
// # One call per event
//
// Every heap push runs one body, pushAt, which also checks the
// caller's clock; Push, PushArg, PushAt, PushAfter and PushSeqArg are
// one-line wrappers within the inliner's budget, so a simulator's
// scheduling call compiles to a single call into the package. Every
// pop runs one body, next: Pop, PopLE, PopLT and PeekTime are one-line
// wrappers around it. next selects and removes in one pass and calls
// nothing except a heap sift, which a one-entry heap skips. The rare
// paths (discarding canceled heap roots, growing a line's ring) sit
// outside the hot bodies.
//
// Fired and discarded slots go onto a LIFO free list and are reused by
// later pushes; reuse is safe because every slot carries a generation
// counter and every Event handle captures the generation it was
// created under.
//
// # Cancel semantics
//
// Cancel is O(1): it only marks the node, and canceled nodes are
// discarded lazily, when they reach the heap root. The generation
// check makes every handle operation safe and precise:
//
//   - Cancel on a fired, discarded, or already-canceled event is a
//     no-op, even if the arena slot has since been reused by a new
//     event.
//   - Scheduled reports false as soon as the event is popped, before
//     its callback runs.
//   - Canceled reports true only while the canceled node still
//     occupies the heap; once it is lazily discarded the handle is
//     stale and Canceled reports false. Use it directly after Cancel.
//
// The zero Event handle is valid and inert: Cancel is a no-op and
// Scheduled/Canceled report false.
package eventq

import (
	"fmt"
	"math"

	"abm/internal/units"
)

// node is one arena slot: the event payload plus its handle state.
type node struct {
	time units.Time
	seq  uint64    // push counter (or reserved value): FIFO tie-break
	fn   func(any) // callback
	arg  any

	gen      uint32 // bumped on release; validates handles
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
// the heap (see the package comment for the post-discard caveat).
func (e Event) Canceled() bool {
	nd := e.live()
	return nd != nil && nd.canceled
}

// Scheduled reports whether the event is still pending: in the
// queue, not canceled, and not yet popped for execution.
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
	delay   units.Time // the delay the line was registered for
	private bool       // made by NewLine: Line never hands it out
	ring    []lineEntry
	head    int // ring index of the oldest entry
	n       int // queued entries
	tail    units.Time
}

// grow doubles the ring, unrolling it so the oldest entry is at 0. It
// runs a handful of times per line, so it stays out of PushLine's body.
//
//go:noinline
func (ln *line) grow() {
	ring := make([]lineEntry, max(16, 2*len(ln.ring)))
	k := copy(ring, ln.ring[ln.head:])
	copy(ring[k:], ln.ring[:ln.head])
	ln.ring, ln.head = ring, 0
}

// LineID names one of a queue's delay lines (see Line).
type LineID int32

// Stats counts the queue's pushes since it was created, by the
// structure each went to.
type Stats struct {
	Heap uint64 // pushes into the heap
	Line uint64 // pushes appended to a delay line
}

// Queue is a time-ordered event queue. The zero value is ready to use.
type Queue struct {
	nodes []node  // arena; handles index into it
	free  []int32 // LIFO free slots (deterministic reuse order)
	seq   uint64
	live  int // queued events, including undiscarded canceled ones

	heap  heap4  // every queued event that is not on a line
	lines []line // delay lines, indexed by LineID
	stats Stats
}

// noClock is the now of a push whose caller keeps no clock: no time
// is before it, so pushAt's past-time check never fires.
const noClock = units.Time(math.MinInt64)

// Len returns the number of events in the queue, including canceled
// ones that have not yet been discarded.
func (q *Queue) Len() int { return q.live }

// Stats returns the queue's push counters.
func (q *Queue) Stats() Stats { return q.stats }

// CallFunc adapts a no-argument callback to the fn/arg pair of a push:
// PushArg(t, CallFunc, f) is Push(t, f). It needs no per-event
// closure: a func() value is pointer-shaped and boxes into `any`
// without allocating.
func CallFunc(a any) { a.(func())() }

// Push schedules fn at time t and returns the event handle.
func (q *Queue) Push(t units.Time, fn func()) Event {
	return q.PushArg(t, CallFunc, fn)
}

// PushArg schedules fn(arg) at time t. Passing a long-lived fn and a
// pointer-shaped arg makes scheduling allocation-free.
func (q *Queue) PushArg(t units.Time, fn func(any), arg any) Event {
	return q.pushAt(noClock, t, 0, fn, arg, false)
}

// PushAt is PushArg for a caller that keeps a clock: it panics if t is
// before now, because running the event would reorder causality. This
// is the hot path the simulator's packet pipeline uses.
func (q *Queue) PushAt(now, t units.Time, fn func(any), arg any) Event {
	return q.pushAt(now, t, 0, fn, arg, false)
}

// PushAfter is PushAt(now, now+d, fn, arg), except that its panic
// names the negative delay.
func (q *Queue) PushAfter(now, d units.Time, fn func(any), arg any) Event {
	return q.pushAt(now, now+d, 0, fn, arg, true)
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
	return q.pushAt(noClock, t, seq, fn, arg, false)
}

// pushAt is the one body of every heap push: it checks t against
// the caller's clock (delay says whether the caller asked for t as a
// delay past now, which its panic then names), takes the next sequence
// number when seq is 0 (a reserved one is never 0), takes an arena
// slot and pushes the event onto the heap.
// The exported pushes are one-line wrappers the inliner folds into
// their callers.
func (q *Queue) pushAt(now, t units.Time, seq uint64, fn func(any), arg any, delay bool) Event {
	if t < now {
		if delay {
			panic(fmt.Sprintf("eventq: negative delay %v", t-now))
		}
		panic(fmt.Sprintf("eventq: scheduling at %v before now %v", t, now))
	}
	if seq == 0 {
		q.seq++
		seq = q.seq
	}
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
	q.stats.Heap++
	q.heap.push(entry{t, seq, slot})
	return Event{q: q, slot: slot, gen: nd.gen}
}

// Line returns the delay line for the fixed delay d, creating it on
// first use: every caller asking for the same delay shares one line.
func (q *Queue) Line(d units.Time) LineID {
	for i := range q.lines {
		if !q.lines[i].private && q.lines[i].delay == d {
			return LineID(i)
		}
	}
	q.lines = append(q.lines, line{delay: d})
	return LineID(len(q.lines) - 1)
}

// NewLine returns a new private line of delay zero: Line never hands
// it to another caller, so its owner alone decides what it holds, and
// PushLine(id, t, fn, arg) on it schedules fn(arg) at exactly t. Its
// pushes must come in nondecreasing time to stay on the line; a push
// behind its tail takes the heap, as on any line.
func (q *Queue) NewLine() LineID {
	q.lines = append(q.lines, line{private: true})
	return LineID(len(q.lines) - 1)
}

// PushLine schedules fn(arg) on line id at now plus the line's delay.
// It takes the next sequence number exactly as PushArg does, so the pop
// order is the one PushArg(now+delay, fn, arg) would give. With now
// nondecreasing the push lands at the line's tail; one behind the tail
// (now went backwards) goes to the heap instead, which keeps the
// line sorted. There is no handle: a line event cannot be canceled.
func (q *Queue) PushLine(id LineID, now units.Time, fn func(any), arg any) {
	q.seq++
	ln := &q.lines[id]
	t := now + ln.delay
	if ln.n > 0 && t < ln.tail {
		q.pushAt(noClock, t, q.seq, fn, arg, false)
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

// Item is one event of a batch push (PushLineBatch): the arguments of
// a push, as a value so batches can be built, sorted and pushed without
// touching the queue. Key is the caller's own tie-break for sorting a
// batch (the parallel engine's mailbox rank); the queue ignores it.
type Item struct {
	Time units.Time
	Fn   func(any)
	Arg  any
	Key  int32
}

// PushLineBatch is PushLine(id, it.Time, it.Fn, it.Arg) for every item
// in slice order, in one call: items[i] takes a lower sequence number
// than items[i+1], so a batch sorted by (time, key) executes in exactly
// that order among simultaneous events. On a private line (NewLine)
// each item fires at its Time; an item behind the line's tail takes
// the heap under its sequence number, as in PushLine.
func (q *Queue) PushLineBatch(id LineID, items []Item) {
	ln := &q.lines[id]
	for i := range items {
		it := &items[i]
		q.seq++
		t := it.Time + ln.delay
		if ln.n > 0 && t < ln.tail {
			q.pushAt(noClock, t, q.seq, it.Fn, it.Arg, false)
			continue
		}
		if ln.n == len(ln.ring) {
			ln.grow()
		}
		e := &ln.ring[(ln.head+ln.n)&(len(ln.ring)-1)]
		e.time, e.seq, e.fn, e.arg = t, q.seq, it.Fn, it.Arg
		ln.n++
		ln.tail = t
		q.live++
		q.stats.Line++
	}
}

// PushBatch schedules every item in order on the heap: items[i]
// receives a lower sequence number than items[i+1]. It has no caller in
// the model (the parallel engine's barrier crossings take
// PushLineBatch); it stays only because benchmark/ still compiles
// against it, and goes with the other shims there.
func (q *Queue) PushBatch(items []Item) {
	for i := range items {
		q.PushArg(items[i].Time, items[i].Fn, items[i].Arg)
	}
}

// LaneID, NewLane, ReleaseLane, PushLane and PushLaneArg are the
// source-compatibility remains of the per-source lane calendar this
// package used to be: benchmark/ still compiles against them. The lane
// is ignored — every push takes the heap — and no model package may
// call them.
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

// Sources next selects from besides a line index (>= 0).
const (
	srcNone = -2
	srcHeap = -1
)

// What next does with the event it selects.
const (
	popLE = iota // remove it if it fires at or before limit
	popLT        // remove it if it fires strictly before limit
	peek         // leave it queued and report its time
)

// next is the one body behind Pop, PopLE, PopLT and PeekTime. It finds
// the earliest live event: canceled events at the heap root are
// discarded, and the event is the smaller of the heap root and the
// line heads. If the queue is empty or the event is past limit, ok is
// false and nothing is removed. Otherwise a pop takes it out — a heap
// event's slot is released before its callback runs, so handles to it
// stop reporting Scheduled — and returns its callback pair along with
// its time.
func (q *Queue) next(limit units.Time, mode int) (fn func(any), arg any, t units.Time, ok bool) {
	if len(q.heap) > 0 && q.nodes[q.heap[0].slot].canceled {
		q.dropCanceled()
	}
	src, k := srcNone, entry{}
	if len(q.heap) > 0 {
		src, k = srcHeap, q.heap[0]
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
	if src == srcNone || k.time > limit || k.time == limit && mode == popLT {
		return nil, nil, 0, false
	}
	if mode == peek {
		return nil, nil, k.time, true
	}

	if src >= 0 {
		ln := &q.lines[src]
		e := &ln.ring[ln.head]
		fn, arg = e.fn, e.arg
		ln.head = (ln.head + 1) & (len(ln.ring) - 1)
		ln.n--
		q.live--
		return fn, arg, k.time, true
	}
	if len(q.heap) == 1 {
		q.heap = q.heap[:0]
	} else {
		q.heap.popMin()
	}
	nd := &q.nodes[k.slot]
	fn, arg = nd.fn, nd.arg
	q.release(k.slot)
	return fn, arg, k.time, true
}

// dropCanceled discards canceled events at the heap root until the
// root is live or the heap is empty: the rare path of next, kept out
// of its body.
func (q *Queue) dropCanceled() {
	for len(q.heap) > 0 && q.nodes[q.heap[0].slot].canceled {
		q.release(q.heap[0].slot)
		q.heap.popMin()
	}
}

// Pop removes the earliest non-canceled event and returns its callback
// pair and firing time. ok is false if the queue holds no live events.
func (q *Queue) Pop() (fn func(any), arg any, t units.Time, ok bool) {
	return q.next(math.MaxInt64, popLE)
}

// PopLE pops the earliest live event only if it fires at or before
// limit; otherwise the event stays queued and ok is false. It fuses
// the PeekTime+Pop pair of a bounded run loop into one selection.
func (q *Queue) PopLE(limit units.Time) (fn func(any), arg any, t units.Time, ok bool) {
	return q.next(limit, popLE)
}

// PopLT is PopLE with a strict bound: only events firing strictly
// before limit are popped.
func (q *Queue) PopLT(limit units.Time) (fn func(any), arg any, t units.Time, ok bool) {
	return q.next(limit, popLT)
}

// PeekTime returns the firing time of the earliest non-canceled event
// without removing it. Canceled events at the heap root are
// discarded.
func (q *Queue) PeekTime() (units.Time, bool) {
	_, _, t, ok := q.next(math.MaxInt64, peek)
	return t, ok
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
