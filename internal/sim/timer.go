package sim

import "abm/internal/units"

// Timer is a re-armable one-shot timer for deadlines that are pushed
// back far more often than they expire (a retransmission timeout is
// re-armed on every packet and every ACK). Arm only records the new
// deadline; at most one wake-up event is queued, and when it fires
// before the recorded deadline it reschedules itself instead of
// calling fn.
//
// The calendar order is exactly that of the eager alternative — cancel
// the old event and push a new one on every Arm. Each Arm reserves its
// tie-break sequence number (eventq.ReserveSeq), so the timer's live
// key is always the (deadline, seq) pair the eager version would have
// pushed. The queued wake-up never sorts after the live key: an Arm
// with a later deadline leaves it in place, and an Arm with an earlier
// one (the RTT estimate shrank, a back-off was reset) replaces it at
// once. A wake-up whose key differs from the live key is therefore
// early, even when only the seq differs; it re-pushes under the live
// key before any event that sorts after that key has run, and fn runs
// at the same point of the event sequence as in the eager version. The
// early wake-ups are extra no-op events and nothing else.
//
// The zero Timer must be set up with Init before use.
type Timer struct {
	sim *Simulator
	fn  func()
	ev  Event // the queued wake-up

	at, wakeAt   units.Time // live deadline; firing time of ev
	seq, wakeSeq uint64     // their tie-break sequence numbers
}

// Init binds the timer to its simulator and expiry callback. Timers
// are embedded by value in their owner so arming never allocates.
func (t *Timer) Init(s *Simulator, fn func()) { t.sim, t.fn = s, fn }

// Arm (re)starts the timer to expire d from now, replacing any earlier
// deadline.
func (t *Timer) Arm(d units.Time) {
	if d < 0 {
		panic("sim: negative timer delay")
	}
	t.at, t.seq = t.sim.now+d, t.sim.q.ReserveSeq()
	if t.ev.Scheduled() {
		if t.wakeAt <= t.at {
			return
		}
		t.ev.Cancel()
	}
	t.schedule()
}

// Stop disarms the timer; fn will not run until the next Arm.
func (t *Timer) Stop() { t.ev.Cancel() }

// schedule queues the wake-up under the live key.
func (t *Timer) schedule() {
	t.wakeAt, t.wakeSeq = t.at, t.seq
	t.ev = t.sim.q.PushSeqArg(t.at, t.seq, timerWake, t)
}

func timerWake(a any) {
	t := a.(*Timer)
	if t.wakeAt != t.at || t.wakeSeq != t.seq {
		t.sim.staleWakes++
		t.schedule()
		return
	}
	t.fn()
}
