package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"abm/internal/units"
)

const hopDelay = units.Time(10_000) // cross-shard latency used by the tests

// pingNode is a minimal two-shard model: each node runs on its own
// shard and bounces a counter to its peer through a mailbox, recording
// every receipt. It exercises exactly the Link.Send-through-mailbox
// shape the topology layer uses.
type pingNode struct {
	sim   *Simulator
	out   *Mailbox
	peer  *pingNode
	trace []string
	hops  int
	limit int
}

func (n *pingNode) recv(arg any) {
	hop := arg.(int)
	n.trace = append(n.trace, fmt.Sprintf("%d@%v", hop, n.sim.Now()))
	n.hops++
	if hop < n.limit {
		n.out.Post(n.sim.Now()+hopDelay, n.peer.recv, hop+1)
	}
}

func buildPingPong(p *Parallel, limit int) (*pingNode, *pingNode) {
	a := &pingNode{sim: p.Shard(0), limit: limit}
	b := &pingNode{sim: p.Shard(1 % p.NumShards()), limit: limit}
	a.peer, b.peer = b, a
	a.out = p.NewMailbox(0, 1%p.NumShards(), hopDelay)
	b.out = p.NewMailbox(1%p.NumShards(), 0, hopDelay)
	return a, b
}

// TestParallelPingPongMatchesSerial runs the bounce chain on a
// two-shard engine and on a plain serial simulator; receipt traces
// must be identical.
func TestParallelPingPongMatchesSerial(t *testing.T) {
	const limit = 40
	deadline := units.Time(1_000_000)

	p := NewParallel(42, 2)
	defer p.Close()
	a, b := buildPingPong(p, limit)
	a.sim.AtArg(0, a.recv, 0)
	p.RunUntil(deadline)
	p.Drain()

	// Serial reference: same chain, direct scheduling.
	s := New(42)
	var sa, sb *serialNode
	sa = &serialNode{sim: s, limit: limit}
	sb = &serialNode{sim: s, limit: limit}
	sa.peer, sb.peer = sb, sa
	s.AtArg(0, sa.recv, 0)
	s.Run()

	if !reflect.DeepEqual(a.trace, sa.trace) {
		t.Fatalf("shard-0 trace diverged:\nparallel %v\nserial   %v", a.trace, sa.trace)
	}
	if !reflect.DeepEqual(b.trace, sb.trace) {
		t.Fatalf("shard-1 trace diverged:\nparallel %v\nserial   %v", b.trace, sb.trace)
	}
	if a.hops+b.hops != limit+1 {
		t.Fatalf("chain incomplete: %d hops, want %d", a.hops+b.hops, limit+1)
	}
}

type serialNode struct {
	sim   *Simulator
	peer  *serialNode
	trace []string
	limit int
}

func (n *serialNode) recv(arg any) {
	hop := arg.(int)
	n.trace = append(n.trace, fmt.Sprintf("%d@%v", hop, n.sim.Now()))
	if hop < n.limit {
		n.sim.AfterArg(hopDelay, n.peer.recv, hop+1)
	}
}

// TestParallelDeterministic runs the same model twice and demands
// identical traces and event counts.
func TestParallelDeterministic(t *testing.T) {
	run := func() ([]string, []string, uint64) {
		p := NewParallel(7, 2)
		defer p.Close()
		a, b := buildPingPong(p, 25)
		a.sim.AtArg(0, a.recv, 0)
		p.RunUntil(500_000)
		p.Drain()
		return a.trace, b.trace, p.Executed()
	}
	a1, b1, n1 := run()
	a2, b2, n2 := run()
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(b1, b2) || n1 != n2 {
		t.Fatalf("repeat run diverged: %v/%v (%d) vs %v/%v (%d)", a1, b1, n1, a2, b2, n2)
	}
}

// TestMailboxMergeOrder posts simultaneous deliveries from two source
// mailboxes and checks the canonical order: time first, then mailbox
// registration order, then posting order within a mailbox.
func TestMailboxMergeOrder(t *testing.T) {
	p := NewParallel(1, 2)
	defer p.Close()
	first := p.NewMailbox(1, 0, hopDelay)  // registered first
	second := p.NewMailbox(1, 0, hopDelay) // registered second

	var got []int
	rec := func(arg any) { got = append(got, arg.(int)) }

	// Seed an event on shard 1 whose execution posts out-of-order times
	// into both boxes.
	p.Shard(1).AtArg(0, func(any) {
		second.Post(2*hopDelay, rec, 10) // same time, later registration
		second.Post(hopDelay, rec, 11)
		first.Post(2*hopDelay, rec, 20)
		first.Post(hopDelay, rec, 21)
		first.Post(hopDelay, rec, 22) // same box+time: posting order
	}, nil)
	p.RunUntil(1_000_000)

	want := []int{21, 22, 11, 20, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order %v, want %v", got, want)
	}
}

// TestBarrierTickerObservesQuiescence fires a ticker every interval and
// checks each firing sees every event before its due time executed and
// none at or after it.
func TestBarrierTickerObservesQuiescence(t *testing.T) {
	p := NewParallel(3, 2)
	defer p.Close()
	a, _ := buildPingPong(p, 60)
	a.sim.AtArg(0, a.recv, 0)

	interval := units.Time(35_000) // deliberately not a multiple of hopDelay
	var fires []units.Time
	tick := p.NewBarrierTicker(interval, func(now units.Time) {
		fires = append(fires, now)
		for i := 0; i < p.NumShards(); i++ {
			if tm, ok := p.Shard(i).NextEventTime(); ok && tm < now {
				t.Fatalf("ticker at %v saw unexecuted event at %v on shard %d", now, tm, i)
			}
		}
	})
	deadline := units.Time(300_000)
	p.RunUntil(deadline)
	tick.Stop()
	p.Drain()

	want := int(deadline / interval)
	if len(fires) != want {
		t.Fatalf("ticker fired %d times, want %d (fires=%v)", len(fires), want, fires)
	}
	for i, at := range fires {
		if at != units.Time(i+1)*interval {
			t.Fatalf("fire %d at %v, want %v", i, at, units.Time(i+1)*interval)
		}
	}
}

// TestRunUntilInclusiveDeadline checks the serial RunUntil contract
// carries over: events at exactly the deadline run, later ones wait.
func TestRunUntilInclusiveDeadline(t *testing.T) {
	p := NewParallel(5, 2)
	defer p.Close()
	// Shard-local records: cross-shard windows run concurrently, so the
	// model (and the test) must not share mutable state across shards.
	var got0, got1 []int
	p.Shard(0).AtArg(100, func(any) { got0 = append(got0, 1) }, nil)
	p.Shard(1).AtArg(100, func(any) { got1 = append(got1, 2) }, nil)
	p.Shard(0).AtArg(101, func(any) { got0 = append(got0, 3) }, nil)
	p.RunUntil(100)
	if !reflect.DeepEqual(got0, []int{1}) || !reflect.DeepEqual(got1, []int{2}) {
		t.Fatalf("after RunUntil(100): shard0=%v shard1=%v, want [1] [2]", got0, got1)
	}
	p.RunUntil(200)
	if !reflect.DeepEqual(got0, []int{1, 3}) {
		t.Fatalf("after RunUntil(200): shard0=%v, want [1 3]", got0)
	}
}

// TestDrainCrossesShards verifies Drain keeps windows rolling through
// cross-shard chains queued past the last deadline.
func TestDrainCrossesShards(t *testing.T) {
	p := NewParallel(9, 4)
	defer p.Close()
	boxes := make([]*Mailbox, 4)
	for i := range boxes {
		boxes[i] = p.NewMailbox(i, (i+1)%4, hopDelay)
	}
	var visits int
	var hop func(arg any)
	hop = func(arg any) {
		n := arg.(int)
		visits++
		if n < 37 {
			shard := n % 4
			boxes[shard].Post(p.Shard(shard).Now()+hopDelay, hop, n+1)
		}
	}
	p.Shard(0).AtArg(0, hop, 0)
	p.RunUntil(1) // chain barely started
	p.Drain()
	if visits != 38 {
		t.Fatalf("drain completed %d visits, want 38", visits)
	}
	if tm, ok := p.peekMin(); ok {
		t.Fatalf("events remain after Drain (next at %v)", tm)
	}
}

// TestDrainWithoutMailboxesOneWindow checks that an engine with no
// mailboxes drains each shard to exhaustion in a single window, however
// many distinct event times (and self-rescheduling chains) remain.
func TestDrainWithoutMailboxesOneWindow(t *testing.T) {
	p := NewParallel(3, 2)
	defer p.Close()
	var fired [2]int
	for i := range fired {
		s := p.Shard(i)
		var step func()
		step = func() {
			if fired[i]++; fired[i] < 50 {
				s.After(units.Time(7+i), step)
			}
		}
		s.At(5, step)
	}
	p.RunUntil(100)
	before := p.windows
	p.Drain()
	if got := p.windows - before; got != 1 {
		t.Fatalf("Drain ran %d windows, want 1", got)
	}
	if fired != [2]int{50, 50} {
		t.Fatalf("fired %v, want [50 50]", fired)
	}
	if last := units.Time(5 + 49*8); p.Now() != last {
		t.Fatalf("frontier %v after Drain, want the last event's %v", p.Now(), last)
	}
}

// TestShardSeedsDiffer ensures shard RNG streams are distinct and
// derived from the base seed.
func TestShardSeedsDiffer(t *testing.T) {
	p := NewParallel(42, 4)
	defer p.Close()
	if p.Seed() != 42 {
		t.Fatalf("base seed %d", p.Seed())
	}
	seen := map[int64]bool{}
	for i := 0; i < 4; i++ {
		s := p.Shard(i).Seed()
		if seen[s] {
			t.Fatalf("duplicate derived seed %d", s)
		}
		seen[s] = true
	}
}

// TestCrossingOrderProperty drives seeded random posts through the
// barrier merge and checks that every destination shard runs them in
// the canonical order: a stable sort of the posts, in posting order,
// by (time, barrier, registration rank). Posts come from one to four
// source shards into several mailboxes per destination, with mixed
// latencies (so a pair buffer arrives out of time order and a later
// barrier's crossing can land behind the line's tail), equal-time ties
// across mailboxes, and out-of-order times within one mailbox. Posting
// rounds are at least one lookahead apart, so each round's posts cross
// at a barrier of their own and the round stands for the barrier in
// the key.
func TestCrossingOrderProperty(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		crossingTrial(t, seed)
	}
}

// plannedPost is one post of a crossing trial, planned before the run.
type plannedPost struct {
	id, box, round int
	time           units.Time
}

func crossingTrial(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	shards := 1 + r.Intn(4)
	p := NewParallel(seed, shards)
	defer p.Close()

	mixed := r.Intn(2) == 0
	type box struct {
		src, dst int
		lat      units.Time
		mb       *Mailbox
	}
	boxes := make([]box, shards+1+r.Intn(3*shards))
	for i := range boxes {
		b := &boxes[i]
		b.src, b.dst, b.lat = r.Intn(shards), r.Intn(shards), hopDelay
		if mixed {
			b.lat *= units.Time(1 + r.Intn(3))
		}
		b.mb = p.NewMailbox(b.src, b.dst, b.lat)
	}

	// plan[round][shard] lists the posts shard makes at that round's
	// instant, in posting order. A few distinct offsets make equal-time
	// ties across mailboxes common and shuffle times within a mailbox.
	look := p.Lookahead()
	var plan [][][]plannedPost
	var all []plannedPost
	var rounds []units.Time
	at := look
	for round := 0; round < 4+r.Intn(12); round++ {
		rounds = append(rounds, at)
		perShard := make([][]plannedPost, shards)
		for k := r.Intn(6 * shards); k > 0; k-- {
			bi := r.Intn(len(boxes))
			pp := plannedPost{id: len(all), box: bi, round: round,
				time: at + boxes[bi].lat + units.Time(r.Intn(3))*1000}
			perShard[boxes[bi].src] = append(perShard[boxes[bi].src], pp)
			all = append(all, pp)
		}
		plan = append(plan, perShard)
		at += look + units.Time(r.Intn(4))*look/2
	}

	got := make([][]int, shards) // per destination; written by its shard only
	deliver := make([]func(any), shards)
	for d := range deliver {
		d := d
		deliver[d] = func(a any) {
			id := a.(int)
			if now := p.Shard(d).Now(); now != all[id].time {
				t.Errorf("seed %d: post %d ran at %v, want %v", seed, id, now, all[id].time)
			}
			got[d] = append(got[d], id)
		}
	}
	for round, at := range rounds {
		for s := 0; s < shards; s++ {
			posts := plan[round][s]
			p.Shard(s).AtArg(at, func(any) {
				for _, pp := range posts {
					b := &boxes[pp.box]
					b.mb.Post(pp.time, deliver[b.dst], pp.id)
				}
			}, nil)
		}
	}
	p.RunUntil(rounds[r.Intn(len(rounds))])
	p.Drain()

	want := make([][]int, shards)
	ref := append([]plannedPost(nil), all...)
	sort.SliceStable(ref, func(i, j int) bool {
		a, b := ref[i], ref[j]
		if a.time != b.time {
			return a.time < b.time
		}
		if a.round != b.round {
			return a.round < b.round
		}
		return a.box < b.box
	})
	for _, pp := range ref {
		d := boxes[pp.box].dst
		want[d] = append(want[d], pp.id)
	}
	for d := range want {
		if !reflect.DeepEqual(got[d], want[d]) {
			t.Fatalf("seed %d, %d shards, mixed %v: shard %d ran %v, want %v",
				seed, shards, mixed, d, got[d], want[d])
		}
	}
}
