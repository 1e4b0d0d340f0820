package eventq

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"abm/internal/units"
)

// modelEvent mirrors one live event in the reference model.
type modelEvent struct {
	time     units.Time
	seq      uint64 // doubles as the event's identity
	canceled bool
}

// refModel is the sorted-slice reference implementation the calendar
// is checked against: a plain slice ordered by (time, seq) with eager
// removal. It has no notion of heap or lines — which is the point: the
// structure an event waits in must be invisible in the pop order. Its pop order is the determinism contract.
type refModel struct {
	events []*modelEvent
}

func (m *refModel) push(t units.Time, seq uint64) *modelEvent {
	e := &modelEvent{time: t, seq: seq}
	i := sort.Search(len(m.events), func(i int) bool {
		o := m.events[i]
		if o.time != t {
			return o.time > t
		}
		return o.seq > seq
	})
	m.events = append(m.events, nil)
	copy(m.events[i+1:], m.events[i:])
	m.events[i] = e
	return e
}

// head drops canceled events from the front and returns the earliest
// live one, or nil.
func (m *refModel) head() *modelEvent {
	for len(m.events) > 0 && m.events[0].canceled {
		m.events = m.events[1:]
	}
	if len(m.events) == 0 {
		return nil
	}
	return m.events[0]
}

// popBefore removes the earliest live event if it fires before limit
// (at or before it when inclusive is set).
func (m *refModel) popBefore(limit units.Time, inclusive bool) (*modelEvent, bool) {
	e := m.head()
	if e == nil {
		return nil, false
	}
	if e.time > limit || (e.time == limit && !inclusive) {
		return nil, false
	}
	m.events = m.events[1:]
	return e, true
}

func (m *refModel) pop() (*modelEvent, bool) {
	return m.popBefore(math.MaxInt64, true)
}

// tick and span scale the times applyOps draws: tick (1024 ps) is a
// step of serialization size, span (2^25 ps, ~33.5 us) a long link
// delay or a short timer.
const (
	tick = units.Time(1) << 10
	span = tick << 15
)

// lineDelays are the fixed delays of the delay lines applyOps drives: a
// few ticks (a serialization end), a quarter span (a 10 us link) and
// 1.2 spans (a 40 us link).
var lineDelays = [...]units.Time{3*tick + 1, span / 4, span + span/5}

// applyOps drives the real queue and the reference model through one
// interleaving of pushes, shim-lane pushes, reserved-seq pushes,
// delay-line pushes (in order, and behind a line's tail), pops, bounded
// pops that may stop short, and cancels on live handles wherever they
// reside — failing if the pop sequences ever diverge. Besides the
// drained queue it returns how many deliveries from each line popped
// before the final drain, i.e. interleaved with the other ops.
// ops supplies one byte per step; times one byte per generated time.
// An op byte's value mod 14 picks the operation; for a bounded pop, the
// rest (op/14) picks the kind of bound (see nextLimit).
//
// Firing times are drawn relative to the model clock (the last popped
// time), so they hit the places where the heap and the lines meet: the
// picoseconds around a line's delivery time (a tie there is decided by
// seq alone), the edges of tick-aligned slots ahead of the clock, the
// clock itself, and hops from a few ticks to many spans out.
func applyOps(t *testing.T, ops, times []byte) (*Queue, [len(lineDelays)]int) {
	t.Helper()
	q := new(Queue)
	var model refModel
	var seq uint64
	var now units.Time // time of the last pop
	type pair struct {
		real  Event
		model *modelEvent
	}
	var live []pair
	var reserved []uint64
	var lines [len(lineDelays)]LineID
	var linePops [len(lineDelays)]int
	lineOf := map[uint64]int{} // a line delivery's seq -> its line
	for i, d := range lineDelays {
		lines[i] = q.Line(d)
	}
	ti := 0
	nextByte := func() int {
		if len(times) == 0 {
			return 0
		}
		b := times[ti%len(times)]
		ti++
		return int(b)
	}
	nextTime := func() units.Time {
		b := nextByte()
		k := units.Time(b / 16)
		switch b % 16 {
		case 0, 1, 2: // same few picoseconds: forces (time, seq) ties
			return now + k
		case 3: // last picosecond of a tick-aligned slot ahead of the clock
			return (now/tick+k+1)*tick - 1
		case 4: // first picosecond of a tick-aligned slot ahead of the clock
			return (now/tick + k + 1) * tick
		case 5, 6, 7: // just before, at and just after a line push made now
			return now + lineDelays[k%3] + units.Time(b%16-6)
		case 8: // the clock itself: ties with the last pop
			return now
		case 9, 10: // a link delay: up to a third of a span
			return now + span/48*(k+1)
		case 11: // a timer: many spans out
			return now + span*(k+2) + k
		case 12: // just short of a span
			return now + span - 1 - k
		default: // a serialization time: a few ticks
			return now + units.Time(b)*tick/7
		}
	}

	// nextLimit draws the bound of a PopLE or PopLT. Kind 0 is a time
	// from nextTime, as for a push; the others are the extremes of the
	// time range (nothing fires before MinInt64, everything at or
	// before MaxInt64), the exact time of the earliest live event (where
	// PopLE and PopLT part ways), and the clock and the picosecond after
	// it (events tied with the clock pop under PopLE(now) and
	// PopLT(now+1), never under PopLT(now)).
	nextLimit := func(kind byte) units.Time {
		switch kind {
		case 1:
			return math.MinInt64
		case 2:
			return math.MaxInt64
		case 3:
			if e := model.head(); e != nil {
				return e.time
			}
			return now
		case 4:
			return now
		case 5:
			return now + 1
		default:
			return nextTime()
		}
	}

	// Each pushed callback records its identity, so the check compares
	// exact pop order (identity), not just firing times — simultaneous
	// events must pop FIFO regardless of which structure holds them.
	var firedID uint64
	fire := func(a any) { firedID = a.(uint64) }
	check := func(where string, step int, fn func(any), arg any, tm units.Time, ok bool, me *modelEvent, mok bool) bool {
		if ok != mok {
			t.Fatalf("%s %d: pop ok=%v, model ok=%v", where, step, ok, mok)
		}
		if !ok {
			return false
		}
		fn(arg)
		if tm != me.time || firedID != me.seq {
			t.Fatalf("%s %d: popped (t=%v id=%d), model (t=%v id=%d)",
				where, step, tm, firedID, me.time, me.seq)
		}
		if i, ok := lineOf[me.seq]; ok {
			linePops[i]++
		}
		now = tm
		return true
	}
	popBoth := func(where string, step int) bool {
		fn, arg, tm, ok := q.Pop()
		me, mok := model.pop()
		return check(where, step, fn, arg, tm, ok, me, mok)
	}
	for step, op := range ops {
		switch op % 14 {
		case 12: // a link delivery: the line's delay past the model clock
			seq++
			i := nextByte() % len(lines)
			q.PushLine(lines[i], now, fire, seq)
			model.push(now+lineDelays[i], seq)
			lineOf[seq] = i
		case 13: // behind a line's tail: must fall back to the calendar
			seq++
			i := nextByte() % len(lines)
			tm := now + lineDelays[i]
			if ln := &q.lines[lines[i]]; ln.n > 0 {
				tm = max(now, ln.tail-units.Time(nextByte()))
			}
			// The caller's clock went back far enough to land at tm.
			q.PushLine(lines[i], tm-lineDelays[i], fire, seq)
			model.push(tm, seq)
		case 0, 1, 4: // push (weighted: keeps the queue populated)
			seq++
			tm := nextTime()
			live = append(live, pair{q.PushArg(tm, fire, seq), model.push(tm, seq)})
		case 5: // push through the lane shim: same calendar, lane ignored
			seq++
			id := seq
			tm := nextTime()
			ln := q.NewLane()
			live = append(live, pair{
				q.PushLane(ln, tm, func() { firedID = id }),
				model.push(tm, seq),
			})
			q.ReleaseLane(ln)
		case 6: // reserve a tie-break now, push under it later
			seq++
			if got := q.ReserveSeq(); got != seq {
				t.Fatalf("step %d: ReserveSeq=%d, want %d", step, got, seq)
			}
			reserved = append(reserved, seq)
		case 8: // push under the oldest reserved seq
			if len(reserved) == 0 {
				continue
			}
			rs := reserved[0]
			reserved = reserved[1:]
			tm := nextTime()
			live = append(live, pair{q.PushSeqArg(tm, rs, fire, rs), model.push(tm, rs)})
		case 2, 7: // pop
			popBoth("step", step)
		case 9: // bounded pops: often stop short of the earliest event
			limit := nextLimit(op / 14)
			fn, arg, tm, ok := q.PopLE(limit)
			me, mok := model.popBefore(limit, true)
			check("PopLE step", step, fn, arg, tm, ok, me, mok)
		case 10:
			limit := nextLimit(op / 14)
			fn, arg, tm, ok := q.PopLT(limit)
			me, mok := model.popBefore(limit, false)
			check("PopLT step", step, fn, arg, tm, ok, me, mok)
		case 11: // peek: may discard canceled roots, must not change the order
			tm, ok := q.PeekTime()
			if me := model.head(); ok != (me != nil) || (ok && tm != me.time) {
				t.Fatalf("step %d: PeekTime=(%v,%v), model has %d events", step, tm, ok, len(model.events))
			}
		case 3: // cancel a pseudo-random live handle (a heap resident)
			if len(live) == 0 {
				continue
			}
			i := (step*31 + int(op)) % len(live)
			live[i].real.Cancel()
			live[i].model.canceled = true
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	// Drain: remaining pop order must match exactly.
	interleaved := linePops
	step := 0
	for popBoth("drain", step) {
		step++
	}
	if q.Len() != 0 {
		t.Fatalf("drained queue reports Len()=%d", q.Len())
	}
	if len(q.heap) != 0 {
		t.Fatalf("drained queue still holds %d heap entries", len(q.heap))
	}
	for i := range q.lines {
		if q.lines[i].n != 0 {
			t.Fatalf("drained queue still holds %d events in line %d", q.lines[i].n, i)
		}
	}
	return q, interleaved
}

// TestModelRandomInterleavings runs many seeded random op sequences
// through applyOps — the property-test face of the model check.
func TestModelRandomInterleavings(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(400) + 10
		ops := make([]byte, n)
		times := make([]byte, n)
		rng.Read(ops)
		rng.Read(times)
		applyOps(t, ops, times)
	}
}

// TestModelDelayLines is applyOps in the packet pipeline's shape: every
// pop schedules a serialization end a few ticks ahead and a link
// delivery on one of the lines, now and then one lands behind a line's
// tail, and a cancel hits a heap resident. In-order line pushes must
// stay in their lines, so only the serialization ends and the
// fallbacks reach the heap, and the pop order must still be the
// reference's.
//
// The pipeline alone keeps the clock within a few ticks of its pushes,
// so every 250 rounds a burst of pops without pushes lets it jump to
// the next pending long-line deliveries. The clock thus passes both
// long lines' delays well before the final drain, and their heads
// interleave with the heap under the check.
func TestModelDelayLines(t *testing.T) {
	var ops, times []byte
	rng := rand.New(rand.NewSource(11))
	ser := func() byte { return byte(13 + 16*rng.Intn(4)) } // 1.9-5.6 ticks
	for i := 0; i < 16; i++ {
		ops, times = append(ops, 0, 12), append(times, ser(), byte(rng.Intn(3)))
	}
	fallbacks := uint64(0)
	for i := 0; i < 3000; i++ {
		ops, times = append(ops, 2, 0, 12), append(times, ser(), byte(rng.Intn(3)))
		switch i % 97 {
		case 0:
			ops, times = append(ops, 13), append(times, byte(rng.Intn(3)), byte(1+rng.Intn(255)))
			fallbacks++
		case 50:
			ops = append(ops, 3)
		}
		if i%250 == 249 {
			for j := 0; j < 200; j++ {
				ops = append(ops, 2)
			}
		}
	}
	q, interleaved := applyOps(t, ops, times)
	if st := q.Stats(); st.Line != 3016 || st.Heap != 3016+fallbacks {
		t.Fatalf("stats %+v: want all 3016 deliveries in lines and the 3016 serialization ends and %d fallbacks on the heap", st, fallbacks)
	}
	if interleaved[1] == 0 || interleaved[2] == 0 {
		t.Fatalf("line deliveries popped before the drain: %v; want some from both long lines", interleaved)
	}
}

// TestModelPlantedArrivals is applyOps in the sharded engine's shape,
// where the heap is largest: thousands of flow arrivals planted up
// front, many spans out and often tied in time, then line traffic
// (one delivery per pop), timers re-armed under reserved seqs as
// sim.Timer does, partial segments' serialization ends, and cancels.
// The planted arrivals fire among the line events, so the heap root
// and the line heads are compared at every pop.
func TestModelPlantedArrivals(t *testing.T) {
	const planted = 3000
	var ops, times []byte
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < planted; i++ {
		ops, times = append(ops, 0), append(times, byte(11+16*rng.Intn(8))) // 2-9 spans out
	}
	link := func() byte { return byte(1 + rng.Intn(2)) } // the 10 us or the 40 us line
	for i := 0; i < 16; i++ {
		ops, times = append(ops, 12), append(times, link())
	}
	var lines, heap uint64 = 16, planted
	for i := 0; i < 4000; i++ {
		ops, times = append(ops, 2, 12), append(times, link())
		lines++
		switch i % 10 {
		case 0: // arm a timer: reserve its place in the order now
			ops = append(ops, 6)
		case 4: // and push it later, a timer's delay out
			ops, times = append(ops, 8), append(times, byte(9+16*rng.Intn(16)))
			heap++
		case 7: // a partial segment's serialization end
			ops, times = append(ops, 0), append(times, byte(13+16*rng.Intn(4)))
			heap++
		}
		if i%50 == 25 {
			ops = append(ops, 3)
		}
	}
	q, _ := applyOps(t, ops, times)
	if st := q.Stats(); st.Line != lines || st.Heap != heap {
		t.Fatalf("stats %+v: want %d line pushes and %d heap pushes", st, lines, heap)
	}
}

// FuzzEventQueue is the fuzz face of the same model check: the fuzzer
// explores interleavings beyond the seeded corpus. Run with
// `go test -fuzz=FuzzEventQueue ./internal/eventq`.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0, 2, 3, 2}, []byte{5, 5, 1})
	f.Add([]byte{0, 1, 0, 1, 3, 3, 2, 2, 2}, []byte{9, 9, 9, 9})
	f.Add([]byte{2, 3, 0, 2, 0, 0, 3, 2, 2, 2}, []byte{0, 255, 128})
	f.Add([]byte{4, 4, 4, 2, 5, 5, 2, 2, 2}, []byte{40, 3, 80})
	f.Add([]byte{4, 5, 3, 6, 4, 2, 3, 2, 2, 2}, []byte{96, 1, 50, 2})
	f.Add([]byte{4, 0, 4, 0, 2, 2, 6, 5, 2, 2, 2}, []byte{7, 7, 7, 7})
	// Tick edges: last/first picosecond of neighbouring tick-aligned slots.
	f.Add([]byte{0, 0, 0, 0, 2, 2, 0, 0, 2, 2, 2, 2}, []byte{3, 4, 19, 20, 3, 4})
	// Line ties: a picosecond before, at and after a line push made now, then cancel one of each.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 3, 3, 2, 2, 2, 2}, []byte{5, 6, 7, 21, 22, 23, 12})
	// Bounded pops stop short, then pushes at the clock tie with the last pop.
	f.Add([]byte{0, 0, 9, 10, 11, 0, 0, 2, 2, 2, 2}, []byte{9, 25, 0, 0, 8, 8, 2})
	// Only heap events: timers spans out and serialization times.
	f.Add([]byte{0, 0, 2, 0, 0, 2, 0, 2, 2, 2}, []byte{11, 27, 13, 9, 43, 13})
	// Reserved seqs pushed late, tied in time with ordinary pushes.
	f.Add([]byte{6, 0, 6, 0, 8, 8, 2, 2, 2, 2}, []byte{0, 0, 0, 0, 9, 9})
	// Delay lines: deliveries on all three lines interleaved with
	// serialization pushes and pops, ties with the clock.
	f.Add([]byte{12, 0, 12, 12, 2, 0, 12, 2, 12, 2, 2, 2, 2}, []byte{0, 13, 1, 2, 29, 1, 0, 2})
	// A push behind a line's tail falls back to the heap, then a cancel there.
	f.Add([]byte{12, 12, 13, 13, 3, 2, 12, 13, 2, 2, 2, 2}, []byte{1, 1, 1, 5, 1, 0, 0, 1, 0, 200})
	// Only line events: bounded pops and peeks with the heap empty.
	f.Add([]byte{12, 12, 12, 9, 10, 11, 2, 12, 0, 2, 2, 2}, []byte{2, 2, 1, 9, 25, 0, 45})
	// Bounded-pop limits (op/14 picks the bound): 23/24 PopLE/PopLT at
	// MinInt64, 37/38 at MaxInt64, 51/52 at the head event's own time,
	// 65/66 and 79/80 at the clock and the picosecond after it.
	// A heap-only queue: every bound against heap residents alone.
	f.Add([]byte{0, 0, 0, 0, 24, 23, 52, 51, 11, 38, 66, 0, 80, 37, 2, 2}, []byte{11, 27, 6, 43, 7})
	// A line-only queue: the same bounds against line heads alone.
	f.Add([]byte{12, 12, 12, 24, 23, 52, 51, 11, 65, 79, 38, 12, 37, 2, 2}, []byte{0, 1, 2, 2})
	// Canceled heap residents: events at t=0 and t=1 and two and three
	// spans out; op 17 cancels the one two spans out, op 31 the root,
	// then PopLT(MinInt64) and a peek must discard the root alone.
	f.Add([]byte{0, 0, 0, 0, 17, 31, 24, 11, 2, 2, 2}, []byte{0, 11, 16, 27})
	f.Fuzz(func(t *testing.T, ops, times []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		applyOps(t, ops, times)
	})
}
