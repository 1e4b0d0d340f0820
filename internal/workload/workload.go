// Package workload generates the paper's two traffic patterns (§4.1):
// a Poisson web-search workload whose flow sizes follow the DCTCP
// measurement CDF, at a configurable fraction of the fabric's access
// bandwidth, and a synthetic incast workload modeling distributed
// file-system query/response fan-in — plus the deterministic long-flow
// permutation the hybrid engine is exercised with.
//
// Each random workload has one arrival process, and one merge orders
// the two into a single stream. Both engines consume that stream (see
// Stream.Schedule), so they launch the same flows at the same times
// with the same IDs.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"abm/internal/cc"
	"abm/internal/metrics"
	"abm/internal/randutil"
	"abm/internal/topo"
	"abm/internal/units"
)

// WebSearch configures the background workload: flows arrive as a
// global Poisson process with rate chosen so the expected inter-rack
// offered load equals Load times the fabric's bisection capacity; sizes
// follow the web-search CDF; sources and destinations are distinct
// uniform hosts.
type WebSearch struct {
	Load  float64 // fraction of bisection (uplink) capacity, e.g. 0.4
	Prio  uint8
	CC    cc.Factory
	Sizes *randutil.EmpiricalCDF // nil = randutil.WebSearch

	// PickCC optionally overrides CC per flow (used by the mixed-protocol
	// isolation experiment); it receives the flow index.
	PickCC func(i int) (cc.Factory, uint8)

	// Seed isolates the workload's randomness from the rest of the
	// simulation, so two runs that differ only in switch configuration
	// see identical arrival patterns. Zero derives a fixed default.
	Seed int64
}

// Incast configures the query/response workload: queries arrive as a
// Poisson process; each query picks a requester and Fanout responders
// uniformly from a different rack, and every responder sends
// RequestSize/Fanout bytes back simultaneously — the paper's
// distributed file-system behaviour (§4.1).
type Incast struct {
	RequestSize units.ByteCount // total bytes fanned in per query
	Fanout      int             // responding servers per query
	QueryRate   float64         // queries per second across the fabric
	Prio        uint8
	CC          cc.Factory

	// PickPrio optionally overrides Prio per response flow (used when the
	// load is spread across queues, §4.4).
	PickPrio func() uint8

	// Seed isolates the workload's randomness; zero derives a default.
	Seed int64
}

// LongFlows configures the steady long-flow workload: host i opens one
// flow of Size bytes to host (i+Stride) mod N at time i*Stagger — a
// full permutation pattern whose flows all converge to steady state
// (the hybrid engine's demotion showcase). The pattern draws no
// randomness.
type LongFlows struct {
	Size    units.ByteCount
	Stride  int // source-to-destination offset of the permutation
	Count   int // source hosts that open a flow (0 = all)
	Stagger units.Time
	Prio    uint8
	CC      cc.Factory
}

// never marks an arrival process that has passed the horizon (or is
// absent): it sorts after every real arrival.
const never = units.Time(math.MaxInt64)

// flow is one planned launch.
type flow struct {
	src, dst int
	size     units.ByteCount
	prio     uint8
	cc       cc.Factory
	class    metrics.FlowClass
}

// Stream is a run's traffic: the long-flow permutation plus the
// web-search and incast arrival processes, merged into one time-ordered
// sequence of launches. It is pulled one arrival at a time, so the
// pending arrivals never sit in memory all at once on the serial
// engine.
type Stream struct {
	net     *topo.Network
	col     *metrics.Collector
	horizon units.Time

	long *LongFlows

	ws     *WebSearch
	wsRNG  *rand.Rand
	wsMean units.Time
	wsAt   units.Time // pending web-search arrival; never once exhausted
	wsFlow flow
	wsN    int // web-search arrivals taken so far (PickCC's index)

	ic      *Incast
	icRNG   *rand.Rand
	icMean  units.Time
	icAt    units.Time // pending query; never once exhausted
	icFlows []flow     // the pending query's responses
	hosts   []int      // responder candidates, reused per query

	at  units.Time // the taken arrival the serial chain launches next
	out []flow     // its flows, priority and CC resolved
}

// NewStream validates the workloads (any may be nil) against the fabric
// and returns their stream, generating arrivals with time <= horizon —
// the same inclusive bound RunUntil(horizon) gives. Every launch is
// recorded in col, whose flow rows are sized up front for the launches
// the workloads' rates predict.
func NewStream(n *topo.Network, col *metrics.Collector, horizon units.Time,
	lf *LongFlows, ws *WebSearch, ic *Incast) (*Stream, error) {

	s := &Stream{net: n, col: col, horizon: horizon, long: lf, ws: ws, ic: ic, wsAt: never, icAt: never}
	// expect is the expected launch count: the long flows plus each
	// arrival process's rate over the horizon.
	var expect float64
	secs := float64(horizon) / float64(units.Second)
	if lf != nil {
		if lf.Size <= 0 {
			return nil, errors.New("workload: long flows need a size of at least one byte")
		}
		if lf.CC == nil {
			return nil, errors.New("workload: long flows need a cc factory")
		}
		expect = float64(n.NumHosts())
		if lf.Count > 0 {
			expect = float64(min(lf.Count, n.NumHosts()))
		}
	}
	if ws != nil {
		if !(ws.Load > 0 && ws.Load <= 1) {
			return nil, fmt.Errorf("workload: load %v out of (0,1]", ws.Load)
		}
		if ws.CC == nil && ws.PickCC == nil {
			return nil, errors.New("workload: web search needs a cc factory")
		}
		if n.G.NumGroups() < 2 {
			return nil, errors.New("workload: web search needs at least two edge groups: its load is set against the bisection between them")
		}
		if ws.Sizes == nil {
			ws.Sizes = randutil.WebSearch
		}
		rate := ws.flowsPerSec(n)
		mean, err := meanGap(rate)
		if err != nil {
			return nil, fmt.Errorf("workload: web-search load %v: %w", ws.Load, err)
		}
		expect += float64(rate * secs)
		s.wsMean = mean
		s.wsRNG = rand.New(rand.NewSource(seedOr(ws.Seed, 0x5eed_ab1e)))
		s.wsAt = 0
		s.drawWebSearch()
	}
	if ic != nil {
		if ic.RequestSize <= 0 {
			return nil, errors.New("workload: incast needs a request size of at least one byte")
		}
		if ic.Fanout <= 0 {
			return nil, errors.New("workload: incast needs a fanout")
		}
		if ic.CC == nil {
			return nil, errors.New("workload: incast needs a cc factory")
		}
		if n.G.NumGroups() < 2 {
			return nil, errors.New("workload: incast needs at least two edge groups: responders come from outside the requester's group")
		}
		mean, err := meanGap(ic.QueryRate)
		if err != nil {
			return nil, fmt.Errorf("workload: incast query rate %g/s: %w", ic.QueryRate, err)
		}
		expect += float64(ic.QueryRate * secs * float64(min(ic.Fanout, n.NumHosts())))
		s.icMean = mean
		s.icRNG = rand.New(rand.NewSource(seedOr(ic.Seed, 0x1ca57)))
		s.icAt = 0
		s.drawQuery()
	}
	col.Flows = slices.Grow(col.Flows, int(min(expect, maxPresize)))
	return s, nil
}

// maxPresize caps the flow rows NewStream sizes up front, so an
// implausible rate cannot demand a huge block before the run; launches
// beyond it grow the rows as they come.
const maxPresize = 1 << 20

func seedOr(seed, def int64) int64 {
	if seed == 0 {
		return def
	}
	return seed
}

// meanGap returns the mean gap of a Poisson process with the given
// rate per second, rejecting rates whose gap the picosecond clock
// cannot hold (it would round to zero or overflow).
func meanGap(perSec float64) (units.Time, error) {
	gap := float64(units.Second) / perSec
	if !(gap >= 1 && gap < math.MaxInt64) {
		return 0, fmt.Errorf("mean arrival gap %.3g ps is outside the clock's range", gap)
	}
	return units.Time(gap), nil
}

// flowsPerSec returns the arrival rate for the target load. Load is
// defined against the fabric's bisection (leaf-spine uplink) capacity:
// with the paper's 4:1 oversubscription, defining it against host
// bandwidth would saturate the uplinks at 25% already. Uniform
// source/destination selection sends an interRack fraction of the
// bytes across the bisection, so the arrival rate is scaled to make
// that fraction equal Load * bisection capacity.
func (w *WebSearch) flowsPerSec(n *topo.Network) float64 {
	bisection := float64(n.BisectionBits()) // bits/s: edge uplink aggregate
	hosts := float64(n.NumHosts())
	interRackFrac := (hosts - float64(n.HostsPerGroup())) / (hosts - 1)
	return w.Load * bisection / (w.Sizes.Mean() * 8 * interRackFrac)
}

// drawWebSearch takes every web-search draw for the next arrival: the
// gap, then (within the horizon) source, destination and size.
func (s *Stream) drawWebSearch() {
	rng := s.wsRNG
	s.wsAt += randutil.Exponential(rng, s.wsMean)
	if s.wsAt > s.horizon {
		s.wsAt = never
		return
	}
	n := s.net.NumHosts()
	src := rng.Intn(n)
	dst := rng.Intn(n - 1)
	if dst >= src {
		dst++
	}
	s.wsFlow = flow{src: src, dst: dst, size: s.ws.Sizes.SampleBytes(rng), class: metrics.ClassWebSearch}
}

// drawQuery takes every incast draw for the next query: the gap, then
// (within the horizon) the requester and the shuffle that picks its
// responders from the other racks.
func (s *Stream) drawQuery() {
	rng := s.icRNG
	s.icAt += randutil.Exponential(rng, s.icMean)
	if s.icAt > s.horizon {
		s.icAt = never
		return
	}
	n := s.net.NumHosts()
	requester := rng.Intn(n)
	reqGroup := s.net.GroupOf(requester)
	s.hosts = s.hosts[:0]
	for h := 0; h < n; h++ {
		if s.net.GroupOf(h) != reqGroup {
			s.hosts = append(s.hosts, h)
		}
	}
	fanout := min(s.ic.Fanout, len(s.hosts))
	rng.Shuffle(len(s.hosts), func(i, j int) {
		s.hosts[i], s.hosts[j] = s.hosts[j], s.hosts[i]
	})
	per := max(s.ic.RequestSize/units.ByteCount(fanout), 1)
	s.icFlows = s.icFlows[:0]
	for _, responder := range s.hosts[:fanout] {
		s.icFlows = append(s.icFlows, flow{src: responder, dst: requester, size: per, class: metrics.ClassIncast})
	}
}

// next takes the earliest pending arrival — web search first on exact
// ties — into s.at/s.out, resolving PickCC/PickPrio in arrival order so
// a shared RNG behind them is drawn the same way on every engine. It
// reports false once both processes have passed the horizon.
func (s *Stream) next() bool {
	switch {
	case s.wsAt != never && s.wsAt <= s.icAt:
		f := s.wsFlow
		f.cc, f.prio = s.ws.CC, s.ws.Prio
		if s.ws.PickCC != nil {
			f.cc, f.prio = s.ws.PickCC(s.wsN)
		}
		s.wsN++
		s.at, s.out = s.wsAt, append(s.out[:0], f)
		s.drawWebSearch()
	case s.icAt != never:
		s.at, s.out = s.icAt, append(s.out[:0], s.icFlows...)
		for i := range s.out {
			s.out[i].cc, s.out[i].prio = s.ic.CC, s.ic.Prio
			if s.ic.PickPrio != nil {
				s.out[i].prio = s.ic.PickPrio()
			}
		}
		s.drawQuery()
	default:
		return false
	}
	return true
}

// Schedule plans the run's traffic; call it once, before the run. Long
// flows are planned first, so their IDs stay in host order. The arrival
// stream then has one consumer per engine:
//
//   - serial: one self-rescheduling event launches an arrival (all of a
//     query's flows together) and plants the next, so only one arrival
//     is ever pending;
//   - sharded (n.Par != nil): the stream is pulled to the horizon up
//     front and every flow is planted on its source host's shard, since
//     no shard may draw from the shared streams during the run.
func (s *Stream) Schedule() {
	if lf := s.long; lf != nil {
		n := s.net.NumHosts()
		srcs := n
		if lf.Count > 0 && lf.Count < n {
			srcs = lf.Count
		}
		for src := 0; src < srcs; src++ {
			dst := ((src+lf.Stride)%n + n) % n
			if dst == src {
				continue
			}
			f := flow{src: src, dst: dst, size: lf.Size, prio: lf.Prio, cc: lf.CC, class: metrics.ClassLong}
			s.launch(units.Time(src)*lf.Stagger, f, false)
		}
	}
	if s.net.Par != nil {
		for s.next() {
			for _, f := range s.out {
				s.launch(s.at, f, false)
			}
		}
		return
	}
	if s.next() {
		s.net.Sim.AtArg(s.at, fireArrival, s)
	}
}

// fireArrival is the serial chain's event: launch the taken arrival,
// then take and plant the next one.
func fireArrival(arg any) {
	s := arg.(*Stream)
	for _, f := range s.out {
		s.launch(s.at, f, true)
	}
	if s.next() {
		s.net.Sim.AtArg(s.at, fireArrival, s)
	}
}

// launch appends f's collector row and allocates its flow ID — both in
// launch order, so the collector layout and the IDs are the same on
// every engine — and starts the flow at t: directly when the caller is
// the serial chain already running at t (now), else from an event on
// the source host's simulator. Afterwards only the flow's own
// completion callback writes its row, which is safe under shard
// concurrency.
func (s *Stream) launch(t units.Time, f flow, now bool) {
	net, col := s.net, s.col
	col.AddFlow(metrics.FlowRecord{
		Class: f.class,
		Prio:  f.prio,
		Size:  f.size,
		Start: t,
		Ideal: net.IdealFCT(f.src, f.dst, f.size),
	})
	idx := len(col.Flows) - 1
	id := net.AllocFlowID()
	col.Flows[idx].ID = id
	algo := f.cc()
	done := func(end units.Time) {
		col.Flows[idx].End = end
		col.Flows[idx].Finished = true
	}
	if now {
		net.StartFlowWithID(id, f.src, f.dst, f.size, f.prio, algo, done)
		return
	}
	net.SimOfHost(f.src).At(t, func() {
		net.StartFlowWithID(id, f.src, f.dst, f.size, f.prio, algo, done)
	})
}
