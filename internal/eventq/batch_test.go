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
