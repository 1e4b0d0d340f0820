// Parallel is the topology-sharded run mode of the simulation kernel:
// N independent Simulators (one per shard, each with its own event
// calendar, packet free list, and derived seed) advance together in
// conservative lookahead windows.
//
// # Model contract
//
// Shards may interact only through registered Mailboxes. A mailbox
// carries events from a producer owned by one shard to a destination
// shard with a minimum latency (for a network link, its propagation
// delay): an event posted while the producer's shard executes a window
// starting at T fires no earlier than T + latency. The engine sizes
// every window at most the minimum registered latency (the lookahead),
// so all deliveries into a window are already buffered when the window
// starts — within a window shards run with no synchronization at all.
//
// # Determinism
//
// At every barrier the engine drains all mailboxes and injects the
// buffered events into their destination calendars in a canonical
// order: delivery time first, ties broken by mailbox registration
// order, then by posting order within a mailbox. The canonical order
// depends only on the model (which link, which packet sequence), not on
// which goroutine ran first, so a parallel run is deterministic and —
// as long as mailbox registration is partition-invariant — identical
// at any shard count.
package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"abm/internal/eventq"
	"abm/internal/obs"
	"abm/internal/randutil"
	"abm/internal/units"
)

// Mailbox buffers events crossing into a destination shard. It is
// single-producer: only the owning shard's goroutine may Post, only
// the engine's coordinator drains it at barriers.
type Mailbox struct {
	dst int
	buf []eventq.Item
}

// Post buffers fn(arg) to fire at absolute time t in the destination
// shard. t must be at least one lookahead beyond the current window's
// start; the engine injects it at the next barrier.
func (m *Mailbox) Post(t units.Time, fn func(any), arg any) {
	m.buf = append(m.buf, eventq.Item{Time: t, Fn: fn, Arg: arg})
}

// BarrierTicker invokes a callback at fixed simulated intervals on the
// engine's coordinator, between windows: when it fires at time T, every
// shard has executed all events before T and none at or after it. It is
// the parallel-mode home for global observers that read state across
// shards (e.g. the fabric-wide buffer occupancy sampler).
type BarrierTicker struct {
	interval units.Time
	next     units.Time
	fn       func(now units.Time)
	stopped  bool
	oneShot  bool
}

// Stop cancels future firings.
func (t *BarrierTicker) Stop() { t.stopped = true }

// windowReq asks a shard worker to run one window.
type windowReq struct {
	start     units.Time // window start (the frontier), for telemetry spans
	limit     units.Time
	inclusive bool // RunUntil(limit) instead of RunBefore(limit)
}

// Parallel coordinates the sharded run.
type Parallel struct {
	seed    int64
	now     units.Time // barrier frontier: all shards have executed events < now
	look    units.Time // lookahead: minimum mailbox latency; 0 until registered
	shards  []*Simulator
	boxes   []*Mailbox
	tickers []*BarrierTicker

	work    []chan windowReq
	wg      sync.WaitGroup
	started bool
	closed  bool

	// Adaptive lookahead widening: after a window ends with every
	// mailbox empty, the coordinator skips the (no-op) barrier and runs
	// the next lookahead-sized window immediately, up to maxWiden
	// windows per barrier cycle. widened counts the extension windows.
	maxWiden int
	widened  uint64

	// Coordinator counts (engine/ counters), kept by the coordinator
	// alone, between windows. barrierWaitNs is measured only while
	// telemetry is on.
	windows, barriers, barrierWaitNs int64
	mailboxBatches, mailboxEvents    int64

	// Telemetry (nil when disabled). Each shard's worker writes window
	// spans into its own shard sink (single-writer); the coordinator
	// alone touches the engine sink, between windows.
	shardSinks []*obs.Sink
	engineSink *obs.Sink
}

// NewParallel creates an engine with n shards. Shard i's simulator is
// seeded with a SplitMix64-derived stream of seed, so shard-local
// randomness is independent of the partition.
func NewParallel(seed int64, n int) *Parallel {
	if n < 1 {
		panic(fmt.Sprintf("sim: parallel engine needs at least one shard, got %d", n))
	}
	p := &Parallel{seed: seed, maxWiden: defaultMaxWiden}
	p.shards = make([]*Simulator, n)
	for i := range p.shards {
		p.shards[i] = New(randutil.DeriveSeed(seed, i))
	}
	return p
}

// Seed returns the engine's base seed (not a shard's derived seed).
func (p *Parallel) Seed() int64 { return p.seed }

// defaultMaxWiden bounds how many consecutive lookahead windows may run
// between barriers when no mailbox receives a post. K=8 captures most
// of the barrier savings on sparse phases while keeping the coordinator
// responsive to new crossings.
const defaultMaxWiden = 8

// SetMaxWiden bounds adaptive window widening to k lookahead windows
// per barrier cycle; k=1 disables widening (every window is followed by
// a barrier, the pre-widening behavior). Widening never changes
// simulation output — the skipped barriers are exactly the ones that
// would have drained zero events and fired zero tickers — so this knob
// exists for benchmarking and for tests that pin the window schedule.
func (p *Parallel) SetMaxWiden(k int) {
	if k < 1 {
		k = 1
	}
	p.maxWiden = k
}

// Widened returns the number of extension windows run so far: windows
// that followed a mailbox-silent window without an intervening barrier.
func (p *Parallel) Widened() uint64 { return p.widened }

// anyPosted reports whether any mailbox holds a pending crossing.
// Coordinator-only (between windows).
func (p *Parallel) anyPosted() bool {
	for _, m := range p.boxes {
		if len(m.buf) > 0 {
			return true
		}
	}
	return false
}

// SetObs attaches a telemetry session, which must have been created with
// this engine's shard count. Call before the first window: the engine
// resolves per-shard sinks once here and registers itself with the
// engine sink, and each shard's simulator with its shard's sink, as
// counter sources. A nil session (telemetry off) is a no-op.
func (p *Parallel) SetObs(sess *obs.Session) {
	if sess == nil {
		return
	}
	p.engineSink = sess.EngineSink()
	p.engineSink.AddSource(p)
	p.shardSinks = make([]*obs.Sink, len(p.shards))
	for i, s := range p.shards {
		p.shardSinks[i] = sess.ShardSink(i)
		p.shardSinks[i].AddSource(s)
	}
}

// AddCounts implements obs.Source with the coordinator's counts.
func (p *Parallel) AddCounts(t *obs.Tally) {
	t[obs.CtrWindows] += p.windows
	t[obs.CtrBarriers] += p.barriers
	t[obs.CtrBarrierWaitNs] += p.barrierWaitNs
	t[obs.CtrMailboxBatches] += p.mailboxBatches
	t[obs.CtrMailboxEvents] += p.mailboxEvents
}

// shardSink returns shard i's telemetry sink (nil when disabled).
func (p *Parallel) shardSink(i int) *obs.Sink {
	if p.shardSinks == nil {
		return nil
	}
	return p.shardSinks[i]
}

// NumShards returns the shard count.
func (p *Parallel) NumShards() int { return len(p.shards) }

// Shard returns shard i's simulator. Model components owned by shard i
// must schedule exclusively on it.
func (p *Parallel) Shard(i int) *Simulator { return p.shards[i] }

// Now returns the barrier frontier: every shard has executed all events
// strictly before it.
func (p *Parallel) Now() units.Time { return p.now }

// Lookahead returns the window bound (the minimum mailbox latency).
func (p *Parallel) Lookahead() units.Time { return p.look }

// Executed sums executed events across shards.
func (p *Parallel) Executed() uint64 {
	var n uint64
	for _, s := range p.shards {
		n += s.Executed()
	}
	return n
}

// NewMailbox registers a mailbox delivering into shard dst with the
// given minimum latency. Registration order is the tie-break of the
// barrier merge, so callers must register mailboxes in a deterministic,
// partition-invariant order (the topology builder registers them in
// link-construction order).
func (p *Parallel) NewMailbox(dst int, latency units.Time) *Mailbox {
	if dst < 0 || dst >= len(p.shards) {
		panic(fmt.Sprintf("sim: mailbox destination shard %d out of range", dst))
	}
	if latency <= 0 {
		panic(fmt.Sprintf("sim: mailbox latency %v must be positive (it bounds the lookahead)", latency))
	}
	if p.look == 0 || latency < p.look {
		p.look = latency
	}
	// Preallocate the batch buffer: it is reused across barriers
	// (drained with buf[:0]), so seeding a useful capacity up front
	// removes the early append-growth reallocations every run pays.
	m := &Mailbox{dst: dst, buf: make([]eventq.Item, 0, 128)}
	p.boxes = append(p.boxes, m)
	return m
}

// NewBarrierTicker registers fn to run every interval of simulated
// time, first firing one interval from the current frontier.
func (p *Parallel) NewBarrierTicker(interval units.Time, fn func(now units.Time)) *BarrierTicker {
	if interval <= 0 {
		panic("sim: barrier ticker interval must be positive")
	}
	t := &BarrierTicker{interval: interval, next: p.now + interval, fn: fn}
	p.tickers = append(p.tickers, t)
	return t
}

// AtBarrier registers fn to run once at a window barrier landing
// exactly at simulated time t: when it fires, every shard has executed
// all events before t and none at or after it — the only point where
// state read by multiple shards (routing tables, link rates) may
// safely change. Like mailbox registration, AtBarrier calls made
// before the run are part of the model and must be made in a
// deterministic order. t must be beyond the current frontier.
func (p *Parallel) AtBarrier(t units.Time, fn func(now units.Time)) *BarrierTicker {
	if t <= p.now {
		panic(fmt.Sprintf("sim: AtBarrier(%v) not beyond frontier %v", t, p.now))
	}
	bt := &BarrierTicker{next: t, fn: fn, oneShot: true}
	p.tickers = append(p.tickers, bt)
	return bt
}

// flush drains every mailbox and injects the buffered events into their
// destination shards in canonical order (time, registration order,
// posting order). Injecting each mailbox separately, in registration
// order, realizes exactly that order: the destination heap breaks time
// ties by push sequence, so an earlier-registered mailbox's equal-time
// events pop first, and posting order decides within one mailbox.
// Coordinator-only.
func (p *Parallel) flush() {
	p.barriers++
	for _, m := range p.boxes {
		buf := m.buf
		if len(buf) == 0 {
			continue
		}
		p.mailboxBatches++
		p.mailboxEvents += int64(len(buf))
		// A link posts deliveries in nondecreasing time order, so the
		// buffer is nearly always sorted; check before paying for a sort.
		sorted := true
		for i := 1; i < len(buf); i++ {
			if buf[i].Time < buf[i-1].Time {
				sorted = false
				break
			}
		}
		if !sorted {
			sort.SliceStable(buf, func(i, j int) bool { return buf[i].Time < buf[j].Time })
		}
		p.shards[m.dst].InjectBatch(buf)
		m.buf = buf[:0]
	}
}

// fireTickers runs every live ticker due at the current frontier.
func (p *Parallel) fireTickers() {
	for _, t := range p.tickers {
		for !t.stopped && t.next <= p.now {
			at := t.next
			if t.oneShot {
				t.stopped = true
			} else {
				t.next += t.interval
			}
			t.fn(at)
		}
	}
}

// nextTicker returns the earliest pending ticker time.
func (p *Parallel) nextTicker() (units.Time, bool) {
	var best units.Time
	ok := false
	for _, t := range p.tickers {
		if t.stopped {
			continue
		}
		if !ok || t.next < best {
			best, ok = t.next, true
		}
	}
	return best, ok
}

// peekMin returns the earliest event time across all shard calendars.
func (p *Parallel) peekMin() (units.Time, bool) {
	var best units.Time
	ok := false
	for _, s := range p.shards {
		if t, live := s.NextEventTime(); live && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// ensureWorkers lazily starts one goroutine per shard. Workers block on
// their request channel; the coordinator hands each a window and waits
// on the shared WaitGroup, which is the synchronization that makes
// shard state safely visible across window/coordinator transitions.
func (p *Parallel) ensureWorkers() {
	if p.started {
		return
	}
	p.started = true
	p.work = make([]chan windowReq, len(p.shards))
	for i := range p.shards {
		i := i
		p.work[i] = make(chan windowReq)
		go func() {
			for req := range p.work[i] {
				p.runShardWindow(i, req)
				p.wg.Done()
			}
		}()
	}
}

// runShardWindow executes one window on shard i and, when tracing is on,
// records it as a span in the shard's own sink. Exactly one goroutine —
// the shard's worker or the coordinator inline — runs this per window,
// so the sink stays single-writer.
func (p *Parallel) runShardWindow(i int, req windowReq) {
	s := p.shards[i]
	sink := p.shardSink(i)
	traced := sink.Enabled(obs.KindWindow)
	var before uint64
	var wall time.Time
	if traced {
		before = s.Executed()
		wall = time.Now()
	}
	if req.inclusive {
		s.RunUntil(req.limit)
	} else {
		s.RunBefore(req.limit)
	}
	if traced {
		sink.Emit(obs.Event{
			At:   req.start,
			Dur:  req.limit - req.start,
			Kind: obs.KindWindow,
			Node: int32(i),
			Aux:  int64(s.Executed() - before),
			Wall: time.Since(wall).Nanoseconds(),
		})
	}
}

// runWindow executes one window on every shard that has work in it.
// Exactly one active shard runs inline on the coordinator; the rest run
// on their workers.
func (p *Parallel) runWindow(limit units.Time, inclusive bool) {
	if p.closed {
		panic("sim: parallel engine used after Close")
	}
	p.windows++
	req := windowReq{start: p.now, limit: limit, inclusive: inclusive}
	inline := -1
	dispatched := 0
	for i, s := range p.shards {
		t, ok := s.NextEventTime()
		if !ok || t > limit || (!inclusive && t == limit) {
			continue
		}
		if inline < 0 {
			inline = i
			continue
		}
		p.ensureWorkers()
		p.wg.Add(1)
		p.work[i] <- req
		dispatched++
	}
	if inline >= 0 {
		p.runShardWindow(inline, req)
	}
	if dispatched == 0 {
		return
	}
	// Measure the coordinator's wait only when telemetry asks for it;
	// the engine sink is nil exactly when the whole subsystem is off.
	if p.engineSink == nil {
		p.wg.Wait()
		return
	}
	wall := time.Now()
	p.wg.Wait()
	waitNs := time.Since(wall).Nanoseconds()
	p.barrierWaitNs += waitNs
	if p.engineSink.Enabled(obs.KindBarrier) {
		active := int64(dispatched)
		if inline >= 0 {
			active++
		}
		p.engineSink.Emit(obs.Event{
			At:   limit,
			Kind: obs.KindBarrier,
			Aux:  active,
			Wall: waitNs,
		})
	}
}

// windowEnd picks the next barrier: bounded by the lookahead past the
// earliest event, by the next global ticker, and by the deadline.
func (p *Parallel) windowEnd(deadline units.Time) units.Time {
	next := deadline
	if t, ok := p.peekMin(); ok && p.look > 0 {
		if b := t + p.look; b < next {
			next = b
		}
	}
	if t, ok := p.nextTicker(); ok && t < next {
		next = t
	}
	return next
}

// RunUntil advances every shard through lookahead windows until all
// events with firing time <= deadline (the same inclusive bound as
// Simulator.RunUntil) have executed, firing barrier tickers and merging
// mailbox crossings at each barrier. Shard clocks end at the deadline.
func (p *Parallel) RunUntil(deadline units.Time) {
	if deadline < p.now {
		panic(fmt.Sprintf("sim: parallel RunUntil(%v) before frontier %v", deadline, p.now))
	}
	for {
		p.flush()
		p.fireTickers()
		if p.now >= deadline {
			break
		}
		// Adaptive widening: each barrier cycle runs up to maxWiden
		// lookahead windows back to back, stopping early the moment a
		// window posts a crossing (it must be injected before any shard
		// may enter the window it lands in) or a barrier ticker comes
		// due. A skipped barrier would have drained nothing and fired
		// nothing, so widening cannot change simulation output — it
		// only skips coordinator turnover between windows. Every
		// decision below reads partition-invariant state (the global
		// event minimum, the mailbox set, the ticker schedule), so the
		// window schedule — and with it the injection order — is itself
		// identical at every shard count.
		for phase := 0; ; phase++ {
			next := p.windowEnd(deadline)
			if next <= p.now {
				panic(fmt.Sprintf("sim: window did not advance past %v", p.now))
			}
			p.runWindow(next, false)
			p.now = next
			if p.now >= deadline || phase+1 >= p.maxWiden || p.anyPosted() {
				break
			}
			if t, ok := p.nextTicker(); ok && t <= p.now {
				break
			}
			p.widened++
		}
	}
	// Events at exactly the deadline: every event before it has run and
	// crossings due at it were injected by the flush above; anything
	// these events post crosses no earlier than deadline + lookahead.
	p.runWindow(deadline, true)
}

// Drain runs every shard to calendar exhaustion (the parallel
// counterpart of Simulator.Run after the workloads stop): windows keep
// advancing past the frontier with no deadline until no shard holds a
// live event and no mailbox holds a crossing. Periodic model tickers
// must be stopped first or Drain will not terminate, exactly like the
// serial run loop.
func (p *Parallel) Drain() {
	for {
		p.flush()
		t, ok := p.peekMin()
		if !ok {
			return
		}
		if p.look == 0 {
			// No mailboxes: a single shard draining serially.
			p.runWindow(t, true)
			if p.now < t {
				p.now = t
			}
			continue
		}
		// Same widening rule as RunUntil: keep running windows while no
		// crossing is posted (tickers are stopped by contract here).
		for phase := 0; ; phase++ {
			limit := t + p.look
			p.runWindow(limit, false)
			if p.now < limit {
				p.now = limit
			}
			if phase+1 >= p.maxWiden || p.anyPosted() {
				break
			}
			if t, ok = p.peekMin(); !ok {
				break
			}
			p.widened++
		}
	}
}

// Close shuts down the worker goroutines. The engine must not run
// afterwards; Close is idempotent and safe if workers never started.
func (p *Parallel) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if p.started {
		for _, ch := range p.work {
			close(ch)
		}
	}
}
