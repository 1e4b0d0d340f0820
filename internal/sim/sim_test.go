package sim

import (
	"fmt"
	"strings"
	"testing"

	"abm/internal/units"
)

func TestRunExecutesInOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("clock = %v, want 30", s.Now())
	}
	if s.Executed() != 3 {
		t.Fatalf("executed = %d", s.Executed())
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := New(1)
	var fired units.Time
	s.At(100, func() {
		s.After(50, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 150 {
		t.Fatalf("fired at %v, want 150", fired)
	}
}

// mustPanic runs f and fails unless it panics with a message containing
// want: the absolute and the relative scheduling calls share one
// checking body, and each must still say which mistake the caller made.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one saying %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one saying %q", msg, want)
		}
	}()
	f()
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	nop := func(any) {}
	s.At(100, func() {
		mustPanic(t, "scheduling at 50ps before now 100ps", func() { s.At(50, func() {}) })
		mustPanic(t, "scheduling at 99ps before now 100ps", func() { s.AtArg(99, nop, nil) })
	})
	s.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	s := New(1)
	nop := func(any) {}
	mustPanic(t, "negative delay -1ps", func() { s.After(-1, func() {}) })
	mustPanic(t, "negative delay -2ps", func() { s.AfterArg(-2, nop, nil) })
	mustPanic(t, "negative delay -3ps", func() { s.DelayLine(-3) })
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []units.Time
	for _, tm := range []units.Time{10, 20, 30, 40} {
		tm := tm
		s.At(tm, func() { fired = append(fired, tm) })
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10,20", fired)
	}
	if s.Now() != 25 {
		t.Fatalf("clock = %v, want 25", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all four", fired)
	}
	// Clock advances to the deadline even with an empty calendar.
	if s.Now() != 100 {
		t.Fatalf("clock = %v, want 100", s.Now())
	}
}

func TestHalt(t *testing.T) {
	s := New(1)
	count := 0
	s.At(1, func() { count++; s.Halt() })
	s.At(2, func() { count++ })
	s.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (halted)", count)
	}
	s.Run()
	if count != 2 {
		t.Fatalf("count = %d, resume should execute remaining", count)
	}
}

// TestHaltInRunUntil pins that a halted RunUntil leaves the clock at
// the halting event: events before the deadline are still queued, and
// the next call must run them with the clock moving forward.
func TestHaltInRunUntil(t *testing.T) {
	s := New(1)
	var fired []units.Time
	s.At(10, func() { fired = append(fired, s.Now()); s.Halt() })
	s.At(20, func() { fired = append(fired, s.Now()) })
	s.RunUntil(100)
	if s.Now() != 10 || len(fired) != 1 {
		t.Fatalf("after halt: clock %v, fired %v; want clock 10, fired [10]", s.Now(), fired)
	}
	s.RunUntil(100)
	if len(fired) != 2 || fired[1] != 20 {
		t.Fatalf("fired %v, want [10 20]", fired)
	}
	if s.Now() != 100 {
		t.Fatalf("clock = %v, want the deadline 100 once the run is exhausted", s.Now())
	}
}

// TestDelayLine checks that line events interleave with ordinary
// events exactly as AfterArg events would: by time, then by scheduling
// order.
func TestDelayLine(t *testing.T) {
	s := New(1)
	ln := s.DelayLine(10)
	if s.DelayLine(10) != ln {
		t.Fatal("the same delay must share one line")
	}
	var got []int
	rec := func(a any) { got = append(got, a.(int)) }
	s.At(5, func() {
		s.AfterLine(ln, rec, 0) // t=15
		s.AfterArg(10, rec, 1)  // t=15, scheduled later
		s.AfterArg(3, rec, 2)   // t=8
		s.AfterLine(ln, rec, 3) // t=15, last of the ties
	})
	s.Run()
	want := []int{2, 0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if s.Now() != 15 || s.Pending() != 0 {
		t.Fatalf("clock %v pending %d, want 15 and 0", s.Now(), s.Pending())
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	s := New(1)
	fired := false
	e := s.At(10, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	var ticks []units.Time
	tk := s.NewTicker(10, func() {
		ticks = append(ticks, s.Now())
		if len(ticks) == 3 {
			s.Halt()
		}
	})
	s.Run()
	tk.Stop()
	want := []units.Time{10, 20, 30}
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
	s.Run()
	if len(ticks) != 3 {
		t.Fatal("ticker fired after Stop")
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := New(1)
	n := 0
	var tk *Ticker
	tk = s.NewTicker(5, func() {
		n++
		tk.Stop()
	})
	s.RunUntil(1000)
	if n != 1 {
		t.Fatalf("ticker fired %d times after Stop in callback", n)
	}
}

func TestZeroIntervalTickerPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.NewTicker(0, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s := New(99)
		var vals []int64
		for i := 0; i < 10; i++ {
			s.After(units.Time(i), func() { vals = append(vals, s.Rand().Int63()) })
		}
		s.Run()
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must produce identical runs")
		}
	}
}

func TestPending(t *testing.T) {
	s := New(1)
	s.At(5, func() {})
	s.At(6, func() {})
	if s.Pending() != 2 {
		t.Fatalf("pending = %d", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("pending after run = %d", s.Pending())
	}
}
