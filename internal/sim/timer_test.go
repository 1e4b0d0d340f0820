package sim

import (
	"fmt"
	"math/rand"
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

// runTimerScript drives three timers with a seeded random script of
// background events that arm (later, earlier, at the same deadline
// again, zero delay), stop, and schedule further background events —
// some exactly at a timer's deadline, so fires tie with ordinary
// events. It returns the log of every background event and every fire
// as (time, tie-break seq), which is the calendar order itself.
func runTimerScript(seed int64, lazy bool) ([]string, *Simulator) {
	s := New(seed)
	rng := rand.New(rand.NewSource(seed))
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
			if rng.Intn(2) == 0 { // like onRTO: the expiry re-arms, backed off
				arm(i, units.Time(1+rng.Intn(40))*units.Microsecond)
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
		i := rng.Intn(numTimers)
		log = append(log, fmt.Sprintf("bg t=%d", now))
		switch rng.Intn(8) {
		case 0, 1: // push the deadline back, as every packet and ACK does
			arm(i, 10*units.Millisecond+units.Time(rng.Intn(1000)))
		case 2: // shrink: the RTT estimate dropped or a back-off was reset
			arm(i, units.Time(1+rng.Intn(20))*units.Microsecond)
		case 3: // same-time tie with whatever else fires now
			arm(i, units.Time(rng.Intn(3)))
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
		spawn(now + units.Time(rng.Intn(30))*units.Microsecond)
		if rng.Intn(4) == 0 {
			spawn(now + 10*units.Millisecond + units.Time(rng.Intn(2000)))
		}
	}
	for k := 0; k < 8; k++ {
		spawn(units.Time(rng.Intn(50)) * units.Microsecond)
	}
	s.Run()
	return log, s
}

// TestTimerMatchesEagerReference is the timer's ordering proof by
// search: on two simulators, one with Timer and one with the eager
// cancel-and-push reference, the same script must produce the same
// sequence of fires and background events, (time, seq) for (time,
// seq). The only difference allowed is the count of executed events:
// Timer's early wake-ups are extra no-ops.
func TestTimerMatchesEagerReference(t *testing.T) {
	var stale, fires uint64
	for seed := int64(1); seed <= 100; seed++ {
		want, eager := runTimerScript(seed, false)
		got, lazy := runTimerScript(seed, true)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log entries, reference has %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d entry %d: got %q, reference %q", seed, i, got[i], want[i])
			}
			if len(want[i]) > 4 && want[i][:4] == "fire" {
				fires++
			}
		}
		st := lazy.staleWakes
		if lazy.Executed() != eager.Executed()+st {
			t.Fatalf("seed %d: executed %d, want reference %d + %d stale wakes",
				seed, lazy.Executed(), eager.Executed(), st)
		}
		if eager.staleWakes != 0 {
			t.Fatalf("seed %d: reference run counted stale wakes", seed)
		}
		stale += st
	}
	if stale == 0 || fires == 0 {
		t.Fatalf("script exercised %d stale wakes and %d fires; both must occur", stale, fires)
	}
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
