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
// A Post appends to one buffer per (source shard, destination shard)
// pair. At every barrier the engine merges each destination's buffers
// and appends the crossings to that shard's private delay line in a
// canonical order: delivery time first, ties broken by mailbox
// registration order, then by posting order within a mailbox; the line
// hands out tie-break sequence numbers in that order. The canonical
// order depends only on the model (which link, which packet sequence),
// not on which goroutine ran first, so a parallel run is deterministic
// and — as long as mailbox registration is partition-invariant —
// identical at any shard count.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"abm/internal/eventq"
	"abm/internal/obs"
	"abm/internal/randutil"
	"abm/internal/units"
)

// Mailbox carries events from one source shard into one destination
// shard. It is single-producer: only the source shard's goroutine may
// Post, and only the engine's coordinator drains its buffer, which it
// shares with every other mailbox of the same shard pair, at barriers.
type Mailbox struct {
	out  *[]eventq.Item // the (source, destination) pair's buffer
	rank int32          // registration order: each Post's Key
}

// Post buffers fn(arg) to fire at absolute time t in the destination
// shard. t must be at least one lookahead beyond the current window's
// start; the engine moves it onto the destination's line at the next
// barrier.
func (m *Mailbox) Post(t units.Time, fn func(any), arg any) {
	*m.out = append(*m.out, eventq.Item{Time: t, Fn: fn, Arg: arg, Key: m.rank})
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
	tickers []*BarrierTicker

	// Barrier crossings. pairs[src*S+dst] buffers what shard src posted
	// for shard dst since the last barrier, each item keyed by its
	// mailbox's rank; flush merges each destination's buffers onto its
	// private line cross[dst] and heads is the merge's reused scratch.
	// A shard's line is made with its first inbound mailbox (noLine
	// until then), so a shard no mailbox reaches, such as the lone shard
	// of a fabric with direct tier links, has no idle line to scan on
	// every pop. boxes counts registered mailboxes (the next rank).
	pairs [][]eventq.Item
	cross []eventq.LineID
	heads [][]eventq.Item
	boxes int32

	// next[i] is shard i's earliest event time (or never) as of the last
	// peekMin, which every runWindow follows directly.
	next []units.Time

	work    []chan windowReq
	wg      sync.WaitGroup
	started bool
	closed  bool

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
	p := &Parallel{seed: seed}
	p.shards = make([]*Simulator, n)
	p.cross = make([]eventq.LineID, n)
	for i := range p.shards {
		p.shards[i] = New(randutil.DeriveSeed(seed, i))
		p.cross[i] = noLine
	}
	p.pairs = make([][]eventq.Item, n*n)
	p.heads = make([][]eventq.Item, 0, n)
	p.next = make([]units.Time, n)
	return p
}

// never is a shard's next-event time when its calendar is empty: later
// than any window limit.
const never = units.Time(math.MaxInt64)

// noLine marks a shard whose crossing line is not made yet.
const noLine = eventq.LineID(-1)

// Seed returns the engine's base seed (not a shard's derived seed).
func (p *Parallel) Seed() int64 { return p.seed }

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

// NewMailbox registers a mailbox carrying events posted on shard src
// into shard dst with the given minimum latency; only src's events may
// Post to it. Registration order is the tie-break of the barrier merge,
// so callers must register mailboxes in a deterministic,
// partition-invariant order (the topology builder registers them in
// link-construction order).
func (p *Parallel) NewMailbox(src, dst int, latency units.Time) *Mailbox {
	for _, sh := range [...]int{src, dst} {
		if sh < 0 || sh >= len(p.shards) {
			panic(fmt.Sprintf("sim: mailbox shard %d out of range", sh))
		}
	}
	if latency <= 0 {
		panic(fmt.Sprintf("sim: mailbox latency %v must be positive (it bounds the lookahead)", latency))
	}
	if p.look == 0 || latency < p.look {
		p.look = latency
	}
	if p.cross[dst] == noLine {
		p.cross[dst] = p.shards[dst].q.NewLine()
	}
	m := &Mailbox{out: &p.pairs[src*len(p.shards)+dst], rank: p.boxes}
	p.boxes++
	// The pair buffer is reused across barriers (cut to [:0]), so a
	// useful capacity up front saves the early growth every run pays.
	if cap(*m.out) == 0 {
		*m.out = make([]eventq.Item, 0, 128)
	}
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

// flush moves every buffered crossing onto its destination shard's
// line in canonical order (time, registration order, posting order),
// which the line then numbers in that order, so equal-time crossings
// pop by rank and then by posting order. Each pair buffer is first put
// in (time, rank) order on its own (see sortCrossings); a destination's
// buffers then merge by (time, rank), a key no two of them share since
// every mailbox has one source shard. Coordinator-only.
func (p *Parallel) flush() {
	p.barriers++
	n := len(p.shards)
	for dst, s := range p.shards {
		heads := p.heads[:0]
		for src := 0; src < n; src++ {
			buf := p.pairs[src*n+dst]
			if len(buf) == 0 {
				continue
			}
			p.mailboxBatches++
			p.mailboxEvents += int64(len(buf))
			sortCrossings(buf)
			heads = append(heads, buf)
			p.pairs[src*n+dst] = buf[:0]
		}
		if len(heads) == 0 {
			continue
		}
		first := heads[0][0].Time
		for _, h := range heads[1:] {
			first = min(first, h[0].Time)
		}
		if first < s.now {
			panic(fmt.Sprintf("sim: crossing at %v before shard %d's now %v", first, dst, s.now))
		}
		q, line := &s.q, p.cross[dst]
		for len(heads) > 1 {
			best := 0
			for i := 1; i < len(heads); i++ {
				if crossingCmp(&heads[i][0], &heads[best][0]) < 0 {
					best = i
				}
			}
			c := &heads[best][0]
			q.PushLine(line, c.Time, c.Fn, c.Arg)
			if heads[best] = heads[best][1:]; len(heads[best]) == 0 {
				heads[best] = heads[len(heads)-1]
				heads = heads[:len(heads)-1]
			}
		}
		q.PushLineBatch(line, heads[0])
	}
}

// crossingCmp orders crossings by (time, rank).
func crossingCmp(a, b *eventq.Item) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	return cmp.Compare(a.Key, b.Key)
}

// sortCrossings puts one pair buffer in (time, rank) order, keeping
// posting order among equal keys (one mailbox's equal-time posts). A
// shard posts in execution order, so with one latency per fabric the
// buffer is already time-sorted and only equal-time runs from
// different mailboxes move: the insertion pass below is then linear.
// The first out-of-order time hands the rest to an in-place stable
// sort; the pass so far kept equal keys in posting order, so the
// result is the same.
func sortCrossings(buf []eventq.Item) {
	for i := 1; i < len(buf); i++ {
		prev := &buf[i-1]
		if buf[i].Time < prev.Time {
			slices.SortStableFunc(buf, func(a, b eventq.Item) int { return crossingCmp(&a, &b) })
			return
		}
		if buf[i].Time > prev.Time || buf[i].Key >= prev.Key {
			continue
		}
		c := buf[i]
		j := i
		for j > 0 && buf[j-1].Time == c.Time && buf[j-1].Key > c.Key {
			buf[j] = buf[j-1]
			j--
		}
		buf[j] = c
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

// peekMin returns the earliest event time across all shard calendars,
// and keeps each shard's in next for the runWindow that follows.
func (p *Parallel) peekMin() (units.Time, bool) {
	best := never
	for i, s := range p.shards {
		t, live := s.NextEventTime()
		if !live {
			t = never
		}
		p.next[i] = t
		best = min(best, t)
	}
	return best, best != never
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
		end := req.limit
		if end == never {
			end = s.Now() // Drain's exhaustion window: up to its last event
		}
		sink.Emit(obs.Event{
			At:   req.start,
			Dur:  end - req.start,
			Kind: obs.KindWindow,
			Node: int32(i),
			Aux:  int64(s.Executed() - before),
			Wall: time.Since(wall).Nanoseconds(),
		})
	}
}

// runWindow executes one window on every shard that has work in it,
// as the peekMin the caller made just before found them. Exactly one
// active shard runs inline on the coordinator; the rest run on their
// workers.
func (p *Parallel) runWindow(limit units.Time, inclusive bool) {
	if p.closed {
		panic("sim: parallel engine used after Close")
	}
	p.windows++
	req := windowReq{start: p.now, limit: limit, inclusive: inclusive}
	inline := -1
	dispatched := 0
	for i, t := range p.next {
		if t > limit || (!inclusive && t == limit) {
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
// earliest event, by the next global ticker, and by the deadline. Its
// peekMin leaves each shard's head for the runWindow that follows.
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
		next := p.windowEnd(deadline)
		if next <= p.now {
			panic(fmt.Sprintf("sim: window did not advance past %v", p.now))
		}
		p.runWindow(next, false)
		p.now = next
	}
	// Events at exactly the deadline: every event before it has run and
	// crossings due at it were injected by the flush above; anything
	// these events post crosses no earlier than deadline + lookahead.
	p.peekMin()
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
			// No mailboxes, so no shard can reach another: one window
			// runs each to exhaustion.
			p.runWindow(never, false)
			for _, s := range p.shards {
				p.now = max(p.now, s.Now())
			}
			return
		}
		limit := t + p.look
		p.runWindow(limit, false)
		p.now = max(p.now, limit)
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
