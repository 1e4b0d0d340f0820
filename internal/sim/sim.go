// Package sim provides the discrete-event simulation kernel: a virtual
// clock, an event calendar, and a deterministic single-threaded run loop.
//
// All model components (links, switches, hosts) schedule callbacks on a
// shared *Simulator. Determinism is guaranteed by the event queue's FIFO
// tie-break and by the single seeded random source.
//
// The hot path is allocation-free: AtArg/AfterArg schedule a long-lived
// func with a pointer-shaped argument (no closure allocation, no heap
// node — see internal/eventq), and the simulator owns a deterministic
// free list of packets (NewPacket/FreePacket) so per-packet model
// objects are recycled instead of re-allocated.
package sim

import (
	"fmt"
	"math/rand"

	"abm/internal/eventq"
	"abm/internal/obs"
	"abm/internal/packet"
	"abm/internal/units"
)

// Event is a cancelable handle to a scheduled callback. It is a small
// value; the zero Event is inert (Cancel is a no-op, Scheduled reports
// false), so components can hold one without a nil check.
type Event = eventq.Event

// Simulator owns the virtual clock, the event calendar, and the packet
// free list.
type Simulator struct {
	now    units.Time
	q      eventq.Queue
	pool   packet.Pool
	rng    *rand.Rand // nil until Rand is first called
	seed   int64
	nexec  uint64
	halted bool

	staleWakes uint64 // Timer wake-ups that fired before their deadline
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Simulator { return &Simulator{seed: seed} }

// Now returns the current simulated time.
func (s *Simulator) Now() units.Time { return s.now }

// Seed returns the seed the simulator was created with. Model builders
// use it to derive per-component random streams that are independent of
// execution order (see topo: per-switch MMU randomness).
func (s *Simulator) Seed() int64 { return s.seed }

// Rand returns the simulator's deterministic random source, seeded on
// the first call: a run that never draws from it never builds it.
func (s *Simulator) Rand() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
	}
	return s.rng
}

// Executed returns the number of events executed so far.
func (s *Simulator) Executed() uint64 { return s.nexec }

// NewPacket returns a zeroed packet from the simulator's free list.
func (s *Simulator) NewPacket() *packet.Packet { return s.pool.Get() }

// FreePacket releases a packet back to the free list. The caller must
// be the packet's sole owner and drop every reference to it (and its
// INT slices).
func (s *Simulator) FreePacket(p *packet.Packet) { s.pool.Put(p) }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it would silently reorder causality.
func (s *Simulator) At(t units.Time, fn func()) Event {
	return s.q.PushAt(s.now, t, eventq.CallFunc, fn)
}

// After schedules fn to run d from now. A negative delay panics.
func (s *Simulator) After(d units.Time, fn func()) Event {
	return s.q.PushAfter(s.now, d, eventq.CallFunc, fn)
}

// AtArg schedules fn(arg) at absolute time t. With a long-lived fn and
// a pointer-shaped arg this performs no allocation; it is the
// scheduling primitive of the packet hot path.
func (s *Simulator) AtArg(t units.Time, fn func(any), arg any) Event {
	return s.q.PushAt(s.now, t, fn, arg)
}

// AfterArg schedules fn(arg) to run d from now; see AtArg.
func (s *Simulator) AfterArg(d units.Time, fn func(any), arg any) Event {
	return s.q.PushAfter(s.now, d, fn, arg)
}

// DelayLine names one of the simulator's delay lines: a FIFO for events
// always scheduled the same fixed delay ahead, such as a link's
// deliveries or a port's full-segment serialization ends (see
// eventq.Queue.Line).
type DelayLine = eventq.LineID

// DelayLine returns the simulator's line for delay d, creating it on
// first use; every caller with the same delay shares it.
func (s *Simulator) DelayLine(d units.Time) DelayLine {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.q.Line(d)
}

// AfterLine schedules fn(arg) one line delay from now. It pops exactly
// where AfterArg(delay, fn, arg) would, but returns no handle: a line
// event cannot be canceled.
func (s *Simulator) AfterLine(l DelayLine, fn func(any), arg any) {
	s.q.PushLine(l, s.now, fn, arg)
}

// LaneID, NewLane, AtLaneArg and AfterLaneArg are the source-
// compatibility remains of the per-source lane calendar: benchmark/
// still compiles against them. The lane is ignored and no model
// package may call them; see eventq.LaneID.
type LaneID = eventq.LaneID

// NewLane returns a placeholder lane; see LaneID.
func (s *Simulator) NewLane() LaneID { return 0 }

// AtLaneArg is AtArg; see LaneID.
func (s *Simulator) AtLaneArg(_ LaneID, t units.Time, fn func(any), arg any) Event {
	return s.AtArg(t, fn, arg)
}

// AfterLaneArg is AfterArg; see LaneID.
func (s *Simulator) AfterLaneArg(_ LaneID, d units.Time, fn func(any), arg any) Event {
	return s.AfterArg(d, fn, arg)
}

// Halt stops the run loop after the currently executing event returns.
func (s *Simulator) Halt() { s.halted = true }

// Run executes events until the calendar is empty or Halt is called.
func (s *Simulator) Run() {
	s.halted = false
	for !s.halted {
		fn, arg, t, ok := s.q.Pop()
		if !ok {
			return
		}
		s.now = t
		s.nexec++
		fn(arg)
	}
}

// RunUntil executes events with firing time <= deadline, then advances
// the clock to the deadline. Events scheduled beyond the deadline stay
// queued and fire on a later call. After a Halt the clock stays at the
// halting event, since earlier events than the deadline may remain.
func (s *Simulator) RunUntil(deadline units.Time) {
	s.halted = false
	for !s.halted {
		fn, arg, t, ok := s.q.PopLE(deadline)
		if !ok {
			if s.now < deadline {
				s.now = deadline
			}
			return
		}
		s.now = t
		s.nexec++
		fn(arg)
	}
}

// RunBefore executes events with firing time strictly less than limit
// and leaves events at or beyond limit queued. Unlike RunUntil it does
// not advance the clock to the limit: the clock stays at the last
// executed event, so a later injection at limit (a window-barrier
// delivery) still schedules in the shard's future. This is the
// lookahead-window body of the parallel engine.
func (s *Simulator) RunBefore(limit units.Time) {
	s.halted = false
	for !s.halted {
		fn, arg, t, ok := s.q.PopLT(limit)
		if !ok {
			return
		}
		s.now = t
		s.nexec++
		fn(arg)
	}
}

// NextEventTime returns the firing time of the earliest live event, or
// ok=false for an empty calendar. The parallel engine's coordinator
// uses it to size lookahead windows.
func (s *Simulator) NextEventTime() (units.Time, bool) { return s.q.PeekTime() }

// Pending returns the number of events still in the calendar (including
// canceled events not yet discarded).
func (s *Simulator) Pending() int { return s.q.Len() }

// AddCounts implements obs.Source: the engine's self-observation —
// where the calendar's pushes went (eventq.Stats), how many Timer
// wake-ups fired early, and how many packets the free list allocated.
func (s *Simulator) AddCounts(t *obs.Tally) {
	st := s.q.Stats()
	t[obs.CtrCalendarHeap] += int64(st.Heap)
	t[obs.CtrCalendarLine] += int64(st.Line)
	t[obs.CtrTimerStaleWakes] += int64(s.staleWakes)
	t[obs.CtrPktPoolAllocs] += s.pool.Allocs
}

// Ticker repeatedly invokes fn every interval until Stop is called.
type Ticker struct {
	sim      *Simulator
	interval units.Time
	fn       func()
	fire     func() // prebound so re-arming never allocates
	ev       Event
	stopped  bool
}

// NewTicker schedules fn every interval, first firing one interval from
// now. The interval must be positive.
func (s *Simulator) NewTicker(interval units.Time, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{sim: s, interval: interval, fn: fn}
	t.fire = func() {
		if t.stopped {
			return
		}
		t.fn()
		t.arm()
	}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.sim.After(t.interval, t.fire)
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}
