package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"abm/internal/units"
)

// popTime drains one live event and returns its time.
func popTime(t *testing.T, q *Queue) (units.Time, bool) {
	t.Helper()
	_, _, tm, ok := q.Pop()
	return tm, ok
}

func TestPopOrder(t *testing.T) {
	var q Queue
	times := []units.Time{5, 1, 3, 2, 4}
	for _, tm := range times {
		q.Push(tm, nil)
	}
	var got []units.Time
	for {
		tm, ok := popTime(t, &q)
		if !ok {
			break
		}
		got = append(got, tm)
	}
	want := []units.Time{1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestTieBreakFIFO(t *testing.T) {
	var q Queue
	order := make([]int, 0, 3)
	for i := 0; i < 3; i++ {
		i := i
		q.Push(7, func() { order = append(order, i) })
	}
	for {
		fn, arg, _, ok := q.Pop()
		if !ok {
			break
		}
		fn(arg)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	a := q.Push(1, nil)
	b := q.Push(2, nil)
	a.Cancel()
	if !a.Canceled() {
		t.Fatal("Canceled() should be true")
	}
	if tm, ok := popTime(t, &q); !ok || tm != 2 {
		t.Fatalf("expected b (t=2) after canceling a, got t=%v ok=%v", tm, ok)
	}
	if b.Scheduled() {
		t.Fatal("popped event must not be scheduled")
	}
	if _, ok := popTime(t, &q); ok {
		t.Fatal("queue should be drained")
	}
}

func TestCancelAllThenPop(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.Push(units.Time(i), nil).Cancel()
	}
	if _, ok := popTime(t, &q); ok {
		t.Fatal("all events canceled, Pop must return nothing")
	}
	if _, ok := q.PeekTime(); ok {
		t.Fatal("all events canceled, PeekTime must return nothing")
	}
}

func TestPeekTime(t *testing.T) {
	var q Queue
	if _, ok := q.PeekTime(); ok {
		t.Fatal("empty queue PeekTime must report nothing")
	}
	q.Push(5, nil)
	b := q.Push(1, nil)
	if tm, ok := q.PeekTime(); !ok || tm != 1 {
		t.Fatalf("PeekTime = %v/%v, want earliest", tm, ok)
	}
	b.Cancel()
	if tm, ok := q.PeekTime(); !ok || tm != 5 {
		t.Fatal("PeekTime should skip canceled head")
	}
	if q.Len() != 1 {
		t.Fatalf("canceled head should be discarded by PeekTime, len=%d", q.Len())
	}
}

func TestScheduled(t *testing.T) {
	var q Queue
	e := q.Push(1, nil)
	if !e.Scheduled() {
		t.Fatal("freshly pushed event must be scheduled")
	}
	q.Pop()
	if e.Scheduled() {
		t.Fatal("popped event must not be scheduled")
	}
}

// TestStaleHandleNoOp pins the generation-counter contract: after an
// event fires and its slot is reused, the old handle must neither
// cancel nor observe the new occupant.
func TestStaleHandleNoOp(t *testing.T) {
	var q Queue
	old := q.Push(1, nil)
	q.Pop() // fires; slot goes to the free list
	fresh := q.Push(2, nil)
	old.Cancel() // stale: must not touch the reused slot
	if old.Scheduled() || old.Canceled() {
		t.Fatal("stale handle must report neither scheduled nor canceled")
	}
	if !fresh.Scheduled() {
		t.Fatal("stale Cancel leaked onto the reused slot")
	}
	if tm, ok := popTime(t, &q); !ok || tm != 2 {
		t.Fatalf("fresh event lost: t=%v ok=%v", tm, ok)
	}
}

// TestZeroHandle pins that the zero Event is inert.
func TestZeroHandle(t *testing.T) {
	var e Event
	e.Cancel()
	if e.Scheduled() || e.Canceled() || e.Time() != 0 {
		t.Fatal("zero handle must be inert")
	}
}

// Property: popping returns events in nondecreasing time order for any
// random insertion sequence.
func TestHeapOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		count := int(n%64) + 1
		in := make([]units.Time, count)
		for i := range in {
			in[i] = units.Time(rng.Int63n(1000))
			q.Push(in[i], nil)
		}
		sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
		for i := 0; i < count; i++ {
			tm, ok := (&q).PopTimeForTest()
			if !ok || tm != in[i] {
				return false
			}
		}
		_, ok := (&q).PopTimeForTest()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// PopTimeForTest drains one live event and returns its time.
func (q *Queue) PopTimeForTest() (units.Time, bool) {
	_, _, tm, ok := q.Pop()
	return tm, ok
}

// Property: canceling a random subset never disturbs the order of the rest.
func TestCancelSubsetProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		count := int(n%64) + 2
		events := make([]Event, count)
		times := make([]units.Time, count)
		var keep []units.Time
		for i := range events {
			times[i] = units.Time(rng.Int63n(100))
			events[i] = q.Push(times[i], nil)
		}
		for i, e := range events {
			if rng.Intn(2) == 0 {
				e.Cancel()
			} else {
				keep = append(keep, times[i])
			}
		}
		sort.Slice(keep, func(i, j int) bool { return keep[i] < keep[j] })
		for _, want := range keep {
			tm, ok := q.PopTimeForTest()
			if !ok || tm != want {
				return false
			}
		}
		_, ok := q.PopTimeForTest()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	var q Queue
	rng := rand.New(rand.NewSource(42))
	times := make([]units.Time, 1024)
	for i := range times {
		times[i] = units.Time(rng.Int63n(1 << 30))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(times[i%len(times)], nil)
		if q.Len() > 512 {
			q.Pop()
		}
	}
}

// BenchmarkEventQueue measures the steady-state Push/Pop cycle at a
// simulator-realistic calendar depth, with PushArg (the hot path the
// packet pipeline uses). Expected: 0 allocs/op once warm.
func BenchmarkEventQueue(b *testing.B) {
	var q Queue
	rng := rand.New(rand.NewSource(42))
	times := make([]units.Time, 4096)
	for i := range times {
		times[i] = units.Time(rng.Int63n(1 << 40))
	}
	nop := func(any) {}
	// Warm to steady depth so arena/heap growth is out of the timed loop.
	for i := 0; i < 2048; i++ {
		q.PushArg(times[i%len(times)], nop, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.PushArg(times[i%len(times)], nop, nil)
		q.Pop()
	}
}

// The calendar hold model at longflows-packet's mix: every packet-hop
// is one serialization end and one delivery a 10 us link ahead (delay
// line); 1 push in 303 (0.33 %, engine/calendar_heap's share there)
// is a ticker-like event 100 us ahead on the heap. The depth is the
// deliveries in flight: 8.9 M over 25 ms is ~356 per us, ~3,600 per
// link delay. The serialization end comes in two mixes:
//
//   - heap: 51 ns-1.2 us ahead (64-1500 B at 10 G) on the heap, as
//     every serialization end was before they took lines;
//   - lines: alternately on a full segment's line (1.2 us) and a
//     header-only packet's (48 ns), as data and ACKs alternate; the
//     workload's last partial segments (64 of 8.9 M hops) are left out.
const (
	holdDepth      = 3600
	holdLinkDelay  = 10 * units.Microsecond
	holdTimerDelay = 100 * units.Microsecond
	holdTimerEvery = 303
)

type hold struct {
	q     Queue
	line  LineID
	tx    [2]LineID // serialization lines; lines mix only
	lines bool
	now   units.Time
	i     int
	ser   [1024]units.Time
}

func holdNop(any) {}

func (h *hold) push() {
	h.i++
	switch {
	case h.i%holdTimerEvery == 0:
		h.q.PushArg(h.now+holdTimerDelay, holdNop, nil)
	case h.i&1 != 0:
		h.q.PushLine(h.line, h.now, holdNop, nil)
	case h.lines:
		h.q.PushLine(h.tx[h.i>>1&1], h.now, holdNop, nil)
	default:
		h.q.PushArg(h.now+h.ser[h.i&1023], holdNop, nil)
	}
}

// step is one calendar operation pair: pop the earliest event, push
// its successor.
func (h *hold) step() {
	_, _, h.now, _ = h.q.Pop()
	h.push()
}

// BenchmarkCalendarHold reports ns per push+pop in the hold model
// above: the calendar's floor for the packet path. The headroom ratio
// ns_per_pkt_hop ÷ (events per packet-hop × this figure) says how far
// a workload's per-hop cost is from what the calendar alone needs;
// tx=lines is the mix the packet path runs today.
func BenchmarkCalendarHold(b *testing.B) {
	for _, lines := range []bool{false, true} {
		name := "tx=heap"
		if lines {
			name = "tx=lines"
		}
		b.Run(name, func(b *testing.B) {
			h := &hold{lines: lines}
			h.line = h.q.Line(holdLinkDelay)
			h.tx = [2]LineID{h.q.Line(1200 * units.Nanosecond), h.q.Line(48 * units.Nanosecond)}
			rng := rand.New(rand.NewSource(42))
			for i := range h.ser {
				h.ser[i] = 51*units.Nanosecond + units.Time(rng.Int63n(int64(1150*units.Nanosecond)))
			}
			for i := 0; i < holdDepth; i++ {
				h.push()
			}
			// Warm up past the first full cycle so the mix of residents and
			// the rings, arena and heaps have reached their steady sizes.
			for i := 0; i < 50*holdDepth; i++ {
				h.step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.step()
			}
			b.StopTimer()
			if h.q.Len() != holdDepth {
				b.Fatalf("hold depth drifted to %d", h.q.Len())
			}
		})
	}
}

// TestWarmQueueZeroAlloc asserts that every push path, paired with the
// pops that keep the queue at a standing depth, allocates nothing once
// the arena, free list, heap and line rings have grown to that depth.
// Each step pushes a fixed number of events 0-2 us ahead on the heap
// (every 64th 100 us ahead, a timer) or onto a delay line, then pops as
// many.
func TestWarmQueueZeroAlloc(t *testing.T) {
	const depth = 2048
	nop := func(any) {}
	rng := rand.New(rand.NewSource(42))
	var gaps [1024]units.Time
	for i := range gaps {
		gaps[i] = units.Time(rng.Int63n(int64(2 * units.Microsecond)))
		if i%64 == 63 {
			gaps[i] = 100 * units.Microsecond
		}
	}
	batch := make([]Item, 16)
	type state struct {
		q     Queue
		line  LineID
		tx    [2]LineID // serialization lines: full segment, header only
		cross LineID    // private, for PushLineBatch
		now   units.Time
		i     int
	}
	pop := func(s *state) { _, _, s.now, _ = s.q.Pop() }
	cases := []struct {
		name string
		step func(s *state)
	}{
		{"PushArg+Pop", func(s *state) {
			s.q.PushArg(s.now+gaps[s.i&1023], nop, nil)
			pop(s)
		}},
		{"PushLaneArg+PopLE", func(s *state) {
			s.q.PushLaneArg(0, s.now+gaps[s.i&1023], nop, nil)
			_, _, s.now, _ = s.q.PopLE(s.now + 200*units.Microsecond)
		}},
		{"PushBatch", func(s *state) {
			for j := range batch {
				batch[j] = Item{Time: s.now + gaps[(s.i+j)&1023], Fn: nop}
			}
			s.q.PushBatch(batch)
			for range batch {
				pop(s)
			}
		}},
		{"PushLine", func(s *state) {
			s.q.PushLine(s.line, s.now, nop, nil)
			pop(s)
		}},
		// A packet-hop on the port path: the serialization end on one of
		// two lines, then the delivery on the link's line.
		{"PushLine, two per hop", func(s *state) {
			s.q.PushLine(s.tx[s.i&1], s.now, nop, nil)
			s.q.PushLine(s.line, s.now, nop, nil)
			pop(s)
			pop(s)
		}},
		{"PushLineBatch", func(s *state) {
			for j := range batch {
				batch[j] = Item{Time: s.now + 10*units.Microsecond + units.Time(j), Fn: nop}
			}
			s.q.PushLineBatch(s.cross, batch)
			for range batch {
				pop(s)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := new(state)
			s.line = s.q.Line(10 * units.Microsecond)
			s.tx = [2]LineID{s.q.Line(1200 * units.Nanosecond), s.q.Line(48 * units.Nanosecond)}
			s.cross = s.q.NewLine()
			for s.i = 0; s.i < depth; s.i++ {
				s.q.PushArg(gaps[s.i&1023], nop, nil)
			}
			run := func(n int) {
				for k := 0; k < n; k++ {
					tc.step(s)
					s.i++
				}
			}
			run(50 * depth)
			if allocs := testing.AllocsPerRun(20, func() { run(depth) }); allocs != 0 {
				t.Fatalf("%.1f allocations per %d steps on a warm queue, want 0", allocs, depth)
			}
			if s.q.Len() != depth {
				t.Fatalf("queue depth drifted to %d, want %d", s.q.Len(), depth)
			}
		})
	}
}

// The TestLane* tests date from the per-source lane calendar. The lane
// entry points survive as shims onto the one calendar (see LaneID), so
// these now pin that the shims keep the global (time, push order)
// contract whatever lane a caller names.

// TestLanePopOrderAcrossStructures interleaves lane-shim and plain
// pushes with colliding times: pops must come back in global (time,
// push order).
func TestLanePopOrderAcrossStructures(t *testing.T) {
	var q Queue
	ln := q.NewLane()
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }
	q.PushLane(ln, 10, rec(0))
	q.Push(10, rec(1)) // same time: later push pops second
	q.PushLane(ln, 10, rec(2))
	q.Push(5, rec(3)) // earlier
	q.PushLane(ln, 20, rec(4))
	for {
		fn, arg, _, ok := q.Pop()
		if !ok {
			break
		}
		fn(arg)
	}
	want := []int{3, 0, 1, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// TestLaneOutOfOrderFallback pushes decreasing times through one lane;
// they must still pop in correct global order.
func TestLaneOutOfOrderFallback(t *testing.T) {
	var q Queue
	ln := q.NewLane()
	var got []units.Time
	q.PushLane(ln, 50, func() { got = append(got, 50) })
	ev := q.PushLane(ln, 30, func() { got = append(got, 30) })
	if !ev.Scheduled() {
		t.Fatal("out-of-order event lost")
	}
	q.PushLane(ln, 50, func() { got = append(got, 51) })
	for {
		fn, arg, _, ok := q.Pop()
		if !ok {
			break
		}
		fn(arg)
	}
	if len(got) != 3 || got[0] != 30 || got[1] != 50 || got[2] != 51 {
		t.Fatalf("pop order %v, want [30 50 51]", got)
	}
}

// TestLaneCancelHead cancels the earliest event; later events must
// still pop, and Len must account for the lazy discard.
func TestLaneCancelHead(t *testing.T) {
	var q Queue
	ln := q.NewLane()
	fired := false
	ev := q.PushLane(ln, 1, func() { t.Fatal("canceled event fired") })
	q.PushLane(ln, 2, func() { fired = true })
	ev.Cancel()
	if q.Len() != 2 {
		t.Fatalf("Len()=%d before discard, want 2", q.Len())
	}
	if tm, ok := q.PeekTime(); !ok || tm != 2 {
		t.Fatalf("PeekTime=(%v,%v), want (2,true)", tm, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("Len()=%d after peek-discard, want 1", q.Len())
	}
	fn, arg, _, ok := q.Pop()
	if !ok {
		t.Fatal("pop failed")
	}
	fn(arg)
	if !fired {
		t.Fatal("surviving event did not fire")
	}
}

// TestPopLEBounds checks the fused bounded pops: events at the bound
// pop under PopLE but not PopLT.
func TestPopLEBounds(t *testing.T) {
	var q Queue
	ln := q.NewLane()
	q.PushLane(ln, 10, func() {})
	q.Push(20, func() {})
	if _, _, _, ok := q.PopLT(10); ok {
		t.Fatal("PopLT(10) popped an event at the bound")
	}
	if _, _, tm, ok := q.PopLE(10); !ok || tm != 10 {
		t.Fatalf("PopLE(10) = (%v,%v), want (10,true)", tm, ok)
	}
	if _, _, _, ok := q.PopLE(19); ok {
		t.Fatal("PopLE(19) popped the t=20 event")
	}
	if _, _, tm, ok := q.PopLT(21); !ok || tm != 20 {
		t.Fatalf("PopLT(21) = (%v,%v), want (20,true)", tm, ok)
	}
}

// TestLaneRecycle releases a lane with events still queued and asks
// for a new one: the queued events drain in order and new pushes stay
// correct.
func TestLaneRecycle(t *testing.T) {
	var q Queue
	ln := q.NewLane()
	var got []units.Time
	q.PushLane(ln, 5, func() { got = append(got, 5) })
	q.PushLane(ln, 9, func() { got = append(got, 9) })
	q.ReleaseLane(ln)
	ln2 := q.NewLane()
	if ln2 != ln {
		t.Fatalf("recycled lane ID %d, want %d", ln2, ln)
	}
	q.PushLane(ln2, 7, func() { got = append(got, 7) })
	q.PushLane(ln2, 9, func() { got = append(got, 91) })
	for {
		fn, arg, _, ok := q.Pop()
		if !ok {
			break
		}
		fn(arg)
	}
	want := []units.Time{5, 7, 9, 91}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// BenchmarkLanePushPop measures one in-order push and one pop per
// iteration against a populated queue, through the lane shim.
func BenchmarkLanePushPop(b *testing.B) {
	var q Queue
	const lanes = 64
	ids := make([]LaneID, lanes)
	for i := range ids {
		ids[i] = q.NewLane()
	}
	fn := func(any) {}
	var tm units.Time
	for i := 0; i < 2048; i++ {
		tm += 3
		q.PushLaneArg(ids[i%lanes], tm, fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm += 3
		q.PushLaneArg(ids[i%lanes], tm, fn, nil)
		q.Pop()
	}
}
