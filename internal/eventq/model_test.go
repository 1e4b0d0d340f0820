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
// removal. It has no notion of buckets, wheel or horizon — which is the
// point: the structure an event waits in must be invisible in the pop
// order. Its pop order is the determinism contract.
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

// popBefore removes the earliest live event if it fires before limit
// (at or before it when inclusive is set).
func (m *refModel) popBefore(limit units.Time, inclusive bool) (*modelEvent, bool) {
	for len(m.events) > 0 && m.events[0].canceled {
		m.events = m.events[1:]
	}
	if len(m.events) == 0 {
		return nil, false
	}
	e := m.events[0]
	if e.time > limit || (e.time == limit && !inclusive) {
		return nil, false
	}
	m.events = m.events[1:]
	return e, true
}

func (m *refModel) pop() (*modelEvent, bool) {
	return m.popBefore(math.MaxInt64, true)
}

const (
	bucketWidth = units.Time(1) << bucketShift
	horizon     = wheelSize * bucketWidth
)

// applyOps drives the real queue and the reference model through one
// interleaving of pushes, shim-lane pushes, reserved-seq pushes, pops,
// bounded pops that may stop short, and cancels on live handles
// wherever they reside — failing if the pop sequences ever diverge.
// ops supplies one byte per step; times one byte per generated time.
//
// Firing times are drawn relative to the model clock (the last popped
// time) and to the queue's own cur, so they hit the places where the
// three structures meet: the last and first picosecond of a bucket, the
// buckets wheelSize-1, wheelSize and wheelSize+1 ahead of cur, times
// behind cur after a bounded pop ran it ahead of the clock, and hops of
// up to a third of the horizon that carry a long run several times
// around the wheel.
func applyOps(t *testing.T, ops, times []byte) *Queue {
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
		case 3: // last picosecond of a bucket at or ahead of cur
			return (units.Time(q.cur)+k+1)*bucketWidth - 1
		case 4: // first picosecond of a bucket ahead of cur
			return (units.Time(q.cur) + k + 1) * bucketWidth
		case 5: // last wheel bucket
			return (units.Time(q.cur)+wheelSize-1)*bucketWidth + k
		case 6: // first far bucket
			return (units.Time(q.cur)+wheelSize)*bucketWidth + k
		case 7:
			return (units.Time(q.cur)+wheelSize+1)*bucketWidth + k
		case 8: // the clock itself: behind cur once a bounded pop ran ahead
			return now
		case 9, 10: // a link delay: up to 1/3 horizon, wraps the wheel over a run
			return now + horizon/48*(k+1)
		case 11: // a timer: well beyond the horizon
			return now + horizon*(k+2) + k
		case 12: // last picosecond before the horizon, seen from the clock
			return now + horizon - 1 - k
		default: // a serialization time: a few buckets
			return now + units.Time(b)*bucketWidth/7
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
		now = tm
		return true
	}
	popBoth := func(where string, step int) bool {
		fn, arg, tm, ok := q.Pop()
		me, mok := model.pop()
		return check(where, step, fn, arg, tm, ok, me, mok)
	}
	for step, op := range ops {
		switch op % 12 {
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
		case 9: // bounded pops: often stop short and leave cur ahead of the clock
			limit := nextTime()
			fn, arg, tm, ok := q.PopLE(limit)
			me, mok := model.popBefore(limit, true)
			check("PopLE step", step, fn, arg, tm, ok, me, mok)
		case 10:
			limit := nextTime()
			fn, arg, tm, ok := q.PopLT(limit)
			me, mok := model.popBefore(limit, false)
			check("PopLT step", step, fn, arg, tm, ok, me, mok)
		case 11: // peek: may advance cur, must not change the order
			tm, ok := q.PeekTime()
			for len(model.events) > 0 && model.events[0].canceled {
				model.events = model.events[1:]
			}
			if ok != (len(model.events) > 0) || (ok && tm != model.events[0].time) {
				t.Fatalf("step %d: PeekTime=(%v,%v), model has %d events", step, tm, ok, len(model.events))
			}
		case 3: // cancel a pseudo-random live handle (near, wheel or far resident)
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
	step := 0
	for popBoth("drain", step) {
		step++
	}
	if q.Len() != 0 {
		t.Fatalf("drained queue reports Len()=%d", q.Len())
	}
	if q.wheelN != 0 || len(q.near) != 0 || len(q.far) != 0 {
		t.Fatalf("drained queue still holds wheelN=%d near=%d far=%d", q.wheelN, len(q.near), len(q.far))
	}
	return q
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

// TestModelWheelRevolutions is applyOps in the simulator's own shape —
// every pop schedules a successor a link delay ahead, a few dozen
// events are in flight — run long enough to carry cur several times
// around the wheel with events resident in it throughout.
func TestModelWheelRevolutions(t *testing.T) {
	var ops, times []byte
	rng := rand.New(rand.NewSource(3))
	hop := func() byte { return byte(9 + 16*rng.Intn(16)) } // horizon/48 .. horizon/3 ahead
	for i := 0; i < 32; i++ {
		ops, times = append(ops, 0), append(times, hop())
	}
	for i := 0; i < 4000; i++ {
		ops, times = append(ops, 2, 0), append(times, hop())
	}
	q := applyOps(t, ops, times)
	if q.cur < 3*wheelSize {
		t.Fatalf("cur=%d: run did not carry the wheel around 3 times (%d buckets)", q.cur, 3*wheelSize)
	}
	if st := q.Stats(); st.Far != 0 || st.Wheel < 4000 {
		t.Fatalf("stats %+v: link-delay hops must all take the wheel", st)
	}
}

// TestBeyondHorizonMatchesReference is the graceful-degradation proof:
// when every delay exceeds the wheel's horizon (a link delay above
// 33.5 us), every push takes the far heap — flat-heap cost, and still
// exactly the reference order.
func TestBeyondHorizonMatchesReference(t *testing.T) {
	var ops, times []byte
	rng := rand.New(rand.NewSource(5))
	far := func() byte { return byte(11 + 16*rng.Intn(16)) } // 2..17 horizons ahead
	for i := 0; i < 64; i++ {
		ops, times = append(ops, 0), append(times, far())
	}
	for i := 0; i < 2000; i++ {
		ops, times = append(ops, 2, 0), append(times, far())
		if i%50 == 0 {
			ops = append(ops, 3) // cancel a far resident now and then
		}
	}
	q := applyOps(t, ops, times)
	if st := q.Stats(); st.Wheel != 0 || st.Near != 0 || st.Far != 2064 {
		t.Fatalf("stats %+v: want every one of the 2064 pushes in far", st)
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
	// Bucket edges: last/first picosecond of neighbouring buckets.
	f.Add([]byte{0, 0, 0, 0, 2, 2, 0, 0, 2, 2, 2, 2}, []byte{3, 4, 19, 20, 3, 4})
	// Horizon edge: wheelSize-1, wheelSize, wheelSize+1 buckets ahead, then cancel one of each.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 3, 3, 2, 2, 2, 2}, []byte{5, 6, 7, 21, 22, 23, 12})
	// Bounded pops stop short (cur runs ahead), then pushes at the clock land behind cur.
	f.Add([]byte{0, 0, 9, 10, 11, 0, 0, 2, 2, 2, 2}, []byte{9, 25, 0, 0, 8, 8, 2})
	// Only far events: every pop jumps the empty wheel's window.
	f.Add([]byte{0, 0, 2, 0, 0, 2, 0, 2, 2, 2}, []byte{11, 27, 13, 9, 43, 13})
	// Reserved seqs pushed late, tied in time with ordinary pushes.
	f.Add([]byte{6, 0, 6, 0, 8, 8, 2, 2, 2, 2}, []byte{0, 0, 0, 0, 9, 9})
	f.Fuzz(func(t *testing.T, ops, times []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		applyOps(t, ops, times)
	})
}
