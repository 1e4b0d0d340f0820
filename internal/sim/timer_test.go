package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"abm/internal/units"
)

// eagerTimer is the reference the re-armable Timer must be
// indistinguishable from: every Arm cancels the queued event and pushes
// a new one under a fresh tie-break.
type eagerTimer struct {
	sim *Simulator
	fn  func()
	ev  Event
	seq uint64
}

func (e *eagerTimer) Arm(d units.Time) {
	e.ev.Cancel()
	e.seq = e.sim.q.ReserveSeq() // ReserveSeq+PushSeqArg is PushArg, with the seq visible
	e.ev = e.sim.q.PushSeqArg(e.sim.now+d, e.seq, func(any) { e.fn() }, nil)
}

func (e *eagerTimer) Stop() { e.ev.Cancel() }

// runTimerScript drives three timers with a script of background
// events that arm (later, earlier, at the same deadline again, zero
// delay), stop, and schedule further background events — some exactly
// at a timer's deadline, so fires tie with ordinary events — and
// advance the clock by their spacing. Every choice is intn's: a seeded
// random source, or a fuzzer's bytes. It returns the log of every
// background event and every fire as (time, tie-break seq), which is
// the calendar order itself.
func runTimerScript(intn func(int) int, lazy bool) ([]string, *Simulator) {
	s := New(1)
	var log []string

	const numTimers = 3
	type timer interface {
		Arm(units.Time)
		Stop()
	}
	timers := make([]timer, numTimers)
	deadline := make([]units.Time, numTimers)
	arm := func(i int, d units.Time) {
		deadline[i] = s.Now() + d
		timers[i].Arm(d)
	}
	for i := range timers {
		i := i
		var seqOf func() uint64
		fire := func() {
			log = append(log, fmt.Sprintf("fire %d t=%d seq=%d", i, s.Now(), seqOf()))
			if intn(2) == 1 { // like onRTO: the expiry re-arms, backed off (a zero choice ends the chain)
				arm(i, units.Time(1+intn(40))*units.Microsecond)
			}
		}
		if lazy {
			t := new(Timer)
			t.Init(s, fire)
			timers[i], seqOf = t, func() uint64 { return t.seq }
		} else {
			e := &eagerTimer{sim: s, fn: fire}
			timers[i], seqOf = e, func() uint64 { return e.seq }
		}
	}

	budget := 1500
	var bg func()
	spawn := func(at units.Time) {
		if budget > 0 {
			budget--
			s.At(at, bg)
		}
	}
	bg = func() {
		now := s.Now()
		i := intn(numTimers)
		log = append(log, fmt.Sprintf("bg t=%d", now))
		switch intn(8) {
		case 0, 1: // push the deadline back, as every packet and ACK does
			arm(i, 10*units.Millisecond+units.Time(intn(1000)))
		case 2: // shrink: the RTT estimate dropped or a back-off was reset
			arm(i, units.Time(1+intn(20))*units.Microsecond)
		case 3: // same-time tie with whatever else fires now
			arm(i, units.Time(intn(3)))
		case 4: // the same deadline again: equal time, later seq
			if d := deadline[i] - now; d >= 0 {
				arm(i, d)
			}
		case 5:
			timers[i].Stop()
		case 6: // an ordinary event tied with a timer's deadline
			if deadline[i] >= now {
				spawn(deadline[i])
			}
		}
		spawn(now + units.Time(intn(30))*units.Microsecond)
		if intn(4) == 0 {
			spawn(now + 10*units.Millisecond + units.Time(intn(2000)))
		}
	}
	for k := 0; k < 8; k++ {
		spawn(units.Time(intn(50)) * units.Microsecond)
	}
	s.Run()
	return log, s
}

// compareTimerScript runs the script on two simulators, one with Timer
// and one with the eager cancel-and-push reference, each with its own
// choice source from newIntn. The two must produce the same sequence
// of fires and background events, (time, seq) for (time, seq). The
// only difference allowed is the count of executed events: Timer's
// early wake-ups are extra no-ops.
func compareTimerScript(t *testing.T, name string, newIntn func() func(int) int) (stale, fires uint64) {
	t.Helper()
	want, eager := runTimerScript(newIntn(), false)
	got, lazy := runTimerScript(newIntn(), true)
	if len(got) != len(want) {
		t.Fatalf("%s: %d log entries, reference has %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s entry %d: got %q, reference %q", name, i, got[i], want[i])
		}
		if strings.HasPrefix(want[i], "fire") {
			fires++
		}
	}
	stale = lazy.staleWakes
	if lazy.Executed() != eager.Executed()+stale {
		t.Fatalf("%s: executed %d, want reference %d + %d stale wakes",
			name, lazy.Executed(), eager.Executed(), stale)
	}
	if eager.staleWakes != 0 {
		t.Fatalf("%s: reference run counted stale wakes", name)
	}
	return stale, fires
}

// TestTimerMatchesEagerReference is the timer's ordering proof by
// search over seeded scripts (FuzzTimer searches further).
func TestTimerMatchesEagerReference(t *testing.T) {
	var stale, fires uint64
	for seed := int64(1); seed <= 100; seed++ {
		st, f := compareTimerScript(t, fmt.Sprintf("seed %d", seed), func() func(int) int {
			return rand.New(rand.NewSource(seed)).Intn
		})
		stale += st
		fires += f
	}
	if stale == 0 || fires == 0 {
		t.Fatalf("script exercised %d stale wakes and %d fires; both must occur", stale, fires)
	}
}

// FuzzTimer is the fuzz face of the same proof: the fuzzer's bytes make
// every choice of the script — which timer, arm later or earlier or at
// a tie, stop, how far apart the background events fall — and an
// exhausted input chooses 0. Run with
// `go test -fuzz=FuzzTimer ./internal/sim`.
func FuzzTimer(f *testing.F) {
	f.Add([]byte{})
	// Arm late, then shrink below the queued wake (an early re-push).
	f.Add([]byte{0, 0, 0, 3, 0, 0, 0, 1, 2, 0, 1, 0})
	// Stops and same-deadline re-arms tied with background events.
	f.Add([]byte{1, 4, 1, 4, 1, 5, 0, 1, 6, 2, 2, 6, 7, 3, 0})
	f.Add([]byte{2, 2, 9, 0, 1, 3, 1, 2, 6, 1, 4, 3, 9, 2, 5, 2, 6, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		compareTimerScript(t, "script", func() func(int) int {
			i := 0
			return func(n int) int {
				v := 0
				for m := 1; m < n; m <<= 8 {
					b := 0
					if i < len(script) {
						b = int(script[i])
						i++
					}
					v = v<<8 | b
				}
				return v % n
			}
		})
	})
}

// TestTimerQueuesOneWake pins the point of the design: re-arming a
// pending timer with a later deadline touches the calendar not at all.
func TestTimerQueuesOneWake(t *testing.T) {
	s := New(1)
	fired := units.Time(-1)
	var tm Timer
	tm.Init(s, func() { fired = s.Now() })
	for i := 0; i < 1000; i++ {
		tm.Arm(units.Time(100 + i))
	}
	if s.Pending() != 1 {
		t.Fatalf("1000 arms queued %d events, want 1", s.Pending())
	}
	s.Run()
	if fired != 1099 {
		t.Fatalf("fired at %v, want the last deadline 1099", fired)
	}
	if st := s.staleWakes; st != 1 {
		t.Fatalf("stale wakes = %d, want 1 (the wake queued by the first arm)", st)
	}
	tm.Arm(5)
	tm.Stop()
	s.Run()
	if fired != 1099 {
		t.Fatal("stopped timer fired")
	}
}
