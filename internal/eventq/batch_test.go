package eventq

import (
	"math/rand"
	"testing"

	"abm/internal/units"
)

// drain pops every event, returning the (time, arg) sequence.
func drain(q *Queue) (times []units.Time, args []int) {
	for {
		_, arg, tm, ok := q.Pop()
		if !ok {
			return times, args
		}
		times = append(times, tm)
		args = append(args, arg.(int))
	}
}

// TestPushBatchOrder verifies that a batch executes in slice order
// among simultaneous events: batch index is the tie-break.
func TestPushBatchOrder(t *testing.T) {
	var q Queue
	nop := func(any) {}
	items := []Item{
		{Time: 5, Fn: nop, Arg: 0},
		{Time: 3, Fn: nop, Arg: 1},
		{Time: 5, Fn: nop, Arg: 2},
		{Time: 3, Fn: nop, Arg: 3},
		{Time: 4, Fn: nop, Arg: 4},
	}
	q.PushBatch(items)
	times, args := drain(&q)
	wantT := []units.Time{3, 3, 4, 5, 5}
	wantA := []int{1, 3, 4, 0, 2}
	for i := range wantT {
		if times[i] != wantT[i] || args[i] != wantA[i] {
			t.Fatalf("pop %d: got (%v,%d), want (%v,%d)", i, times[i], args[i], wantT[i], wantA[i])
		}
	}
}

// TestPushBatchMatchesPushLoop cross-checks PushBatch against a loop
// of PushArg calls on randomized workloads: the pop sequences must be
// identical.
func TestPushBatchMatchesPushLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		pre := rng.Intn(200)   // events already in the calendar
		k := 1 + rng.Intn(300) // batch size; sometimes >> pre
		var batched, looped Queue
		nop := func(any) {}
		for i := 0; i < pre; i++ {
			tm := units.Time(rng.Intn(50))
			batched.PushArg(tm, nop, 1000+i)
			looped.PushArg(tm, nop, 1000+i)
		}
		items := make([]Item, k)
		for i := range items {
			items[i] = Item{Time: units.Time(rng.Intn(50)), Fn: nop, Arg: i}
		}
		batched.PushBatch(items)
		for i := range items {
			looped.PushArg(items[i].Time, items[i].Fn, items[i].Arg)
		}
		bt, ba := drain(&batched)
		lt, la := drain(&looped)
		if len(bt) != len(lt) {
			t.Fatalf("trial %d: length mismatch %d vs %d", trial, len(bt), len(lt))
		}
		for i := range bt {
			if bt[i] != lt[i] || ba[i] != la[i] {
				t.Fatalf("trial %d pop %d: batch (%v,%d) vs loop (%v,%d)",
					trial, i, bt[i], ba[i], lt[i], la[i])
			}
		}
	}
}

// TestPushLineBatchMatchesPushLine cross-checks PushLineBatch against
// a loop of PushLine calls, on a private line and on a shared one, with
// calendar events around them and batches that partly fall behind the
// line's tail: the pop sequences must be identical. It also checks that
// Line never hands out a private line, even for its delay of zero.
func TestPushLineBatchMatchesPushLine(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nop := func(any) {}
	for trial := 0; trial < 50; trial++ {
		var batched, looped Queue
		var bl, ll LineID
		if trial%2 == 0 {
			bl, ll = batched.NewLine(), looped.NewLine()
			if batched.Line(0) == bl {
				t.Fatal("Line(0) handed out a private line")
			}
		} else {
			d := units.Time(rng.Intn(20))
			bl, ll = batched.Line(d), looped.Line(d)
		}
		at := units.Time(0)
		for round := 0; round < 1+rng.Intn(8); round++ {
			for i := 0; i < rng.Intn(20); i++ {
				tm := at + units.Time(rng.Intn(100))
				batched.PushArg(tm, nop, 1000*round+i)
				looped.PushArg(tm, nop, 1000*round+i)
			}
			items := make([]Item, rng.Intn(40))
			for i := range items {
				if rng.Intn(4) > 0 {
					at += units.Time(rng.Intn(3))
				}
				tm := at
				if rng.Intn(10) == 0 {
					tm -= units.Time(rng.Intn(30)) // behind the tail
				}
				items[i] = Item{Time: tm, Fn: nop, Arg: 100000*round + i}
			}
			batched.PushLineBatch(bl, items)
			for _, it := range items {
				looped.PushLine(ll, it.Time, it.Fn, it.Arg)
			}
		}
		if batched.Stats() != looped.Stats() || batched.Len() != looped.Len() {
			t.Fatalf("trial %d: stats %+v len %d vs %+v len %d",
				trial, batched.Stats(), batched.Len(), looped.Stats(), looped.Len())
		}
		bt, ba := drain(&batched)
		lt, la := drain(&looped)
		if len(bt) != len(lt) {
			t.Fatalf("trial %d: length mismatch %d vs %d", trial, len(bt), len(lt))
		}
		for i := range bt {
			if bt[i] != lt[i] || ba[i] != la[i] {
				t.Fatalf("trial %d pop %d: batch (%v,%d) vs loop (%v,%d)",
					trial, i, bt[i], ba[i], lt[i], la[i])
			}
		}
	}
}

func TestPushBatchEmpty(t *testing.T) {
	var q Queue
	q.PushBatch(nil)
	q.PushBatch([]Item{})
	if q.Len() != 0 {
		t.Fatalf("empty batch changed queue length: %d", q.Len())
	}
}

// benchBatch pushes k-item batches against a standing calendar of n
// events, popping k events back per round to stay in steady state.
func benchBatch(b *testing.B, n, k int, batch bool) {
	var q Queue
	nop := func(any) {}
	rng := rand.New(rand.NewSource(1))
	now := units.Time(0)
	for i := 0; i < n; i++ {
		q.PushArg(now+units.Time(rng.Intn(1000)), nop, nil)
	}
	items := make([]Item, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range items {
			items[j] = Item{Time: now + units.Time(100+j), Fn: nop, Arg: nil}
		}
		if batch {
			q.PushBatch(items)
		} else {
			for j := range items {
				q.PushArg(items[j].Time, items[j].Fn, items[j].Arg)
			}
		}
		for j := 0; j < k; j++ {
			_, _, tm, ok := q.Pop()
			if !ok {
				b.Fatal("queue drained")
			}
			now = tm
		}
	}
}

// The barrier-injection shape: a handful of cross-window deliveries
// landing in a busy calendar...
func BenchmarkPushBatchSmallIntoBusy(b *testing.B) { benchBatch(b, 4096, 16, true) }
func BenchmarkPushLoopSmallIntoBusy(b *testing.B)  { benchBatch(b, 4096, 16, false) }

// ...and a large merge into a mostly-drained calendar. PushBatch is a
// push loop now, so each pair should read the same.
func BenchmarkPushBatchLargeIntoIdle(b *testing.B) { benchBatch(b, 64, 512, true) }
func BenchmarkPushLoopLargeIntoIdle(b *testing.B)  { benchBatch(b, 64, 512, false) }
