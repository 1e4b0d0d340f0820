package device

import (
	"math/rand"
	"testing"

	"abm/internal/aqm"
	"abm/internal/bm"
	"abm/internal/obs"
	"abm/internal/packet"
	"abm/internal/sim"
	"abm/internal/units"
)

// sink collects delivered packets with their arrival times.
type sink struct {
	id      packet.NodeID
	sim     *sim.Simulator
	pkts    []*packet.Packet
	arrived []units.Time
}

func (s *sink) ID() packet.NodeID { return s.id }
func (s *sink) Receive(p *packet.Packet) {
	s.pkts = append(s.pkts, p)
	s.arrived = append(s.arrived, s.sim.Now())
}

func dataPkt(flow uint64, payload units.ByteCount) *packet.Packet {
	return &packet.Packet{FlowID: flow, Payload: payload}
}

// testSwitch builds a 1-in-1-out switch: everything routes to port 0,
// whose link goes to the returned sink.
func testSwitch(s *sim.Simulator, cfg SwitchConfig) (*Switch, *sink) {
	if cfg.NumPorts == 0 {
		cfg.NumPorts = 1
	}
	if cfg.QueuesPerPort == 0 {
		cfg.QueuesPerPort = 1
	}
	if cfg.PortRate == 0 {
		cfg.PortRate = 10 * units.GigabitPerSec
	}
	if cfg.MMU.BufferSize == 0 {
		cfg.MMU.BufferSize = units.Megabyte
	}
	sw := NewSwitch(s, cfg)
	sw.SetRouter(func(_ *Switch, _ *packet.Packet) int { return 0 })
	dst := &sink{id: 99, sim: s}
	sw.ConnectPort(0, NewLink(s, 10*units.Microsecond, dst))
	return sw, dst
}

// drain runs the simulation to exhaustion and then checks every
// switch's accounting: pools against queue bytes, and each port's
// queued-packet count against its queues.
func drain(s *sim.Simulator, sws ...*Switch) {
	s.Run()
	for _, sw := range sws {
		sw.MMU().checkInvariants()
	}
}

func TestForwardingTiming(t *testing.T) {
	s := sim.New(1)
	sw, dst := testSwitch(s, SwitchConfig{})
	p := dataPkt(1, 1440) // 1500 on the wire: 1.2us at 10G
	s.At(0, func() { sw.Receive(p) })
	drain(s, sw)
	if len(dst.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(dst.pkts))
	}
	// Serialization 1.2us + propagation 10us.
	if want := 11200 * units.Nanosecond; dst.arrived[0] != want {
		t.Fatalf("arrival at %v, want %v", dst.arrived[0], want)
	}
}

func TestFIFOOrderWithinQueue(t *testing.T) {
	s := sim.New(1)
	sw, dst := testSwitch(s, SwitchConfig{})
	for i := 0; i < 10; i++ {
		p := dataPkt(uint64(i), 1440)
		s.At(units.Time(i), func() { sw.Receive(p) })
	}
	drain(s, sw)
	if len(dst.pkts) != 10 {
		t.Fatalf("delivered %d, want 10", len(dst.pkts))
	}
	for i, p := range dst.pkts {
		if p.FlowID != uint64(i) {
			t.Fatalf("out of order: pos %d has flow %d", i, p.FlowID)
		}
	}
}

func TestBackToBackThroughput(t *testing.T) {
	s := sim.New(1)
	sw, dst := testSwitch(s, SwitchConfig{})
	const n = 100
	s.At(0, func() {
		for i := 0; i < n; i++ {
			sw.Receive(dataPkt(uint64(i), 1440))
		}
	})
	drain(s, sw)
	if len(dst.pkts) != n {
		t.Fatalf("delivered %d, want %d", len(dst.pkts), n)
	}
	// Last arrival = n serializations + one propagation.
	want := units.Time(n)*1200*units.Nanosecond + 10*units.Microsecond
	if got := dst.arrived[n-1]; got != want {
		t.Fatalf("last arrival %v, want %v", got, want)
	}
}

func TestDTThresholdDrops(t *testing.T) {
	s := sim.New(1)
	// B = 15000, alpha = 1: first packet sees T = 15000. As the queue
	// fills, remaining shrinks; the queue stabilizes near alpha/(1+alpha)
	// of B = 7500.
	sw, _ := testSwitch(s, SwitchConfig{
		MMU: MMUConfig{BufferSize: 15000, BM: bm.DT{}, Alphas: []float64{1}},
	})
	s.At(0, func() {
		for i := 0; i < 20; i++ {
			sw.Receive(dataPkt(1, 1440))
		}
	})
	s.RunUntil(1) // before any serialization completes
	q := sw.Port(0).Queue(0)
	if q.DropsThreshold == 0 {
		t.Fatal("expected DT threshold drops")
	}
	// Steady occupancy must be around 7500 (5 packets), certainly < B.
	if q.Bytes() > 9000 {
		t.Fatalf("queue %v exceeds DT fixed point", q.Bytes())
	}
	sw.MMU().checkInvariants()
}

func TestBufferFullDrops(t *testing.T) {
	s := sim.New(1)
	sw, _ := testSwitch(s, SwitchConfig{
		MMU: MMUConfig{BufferSize: 4500, BM: bm.CS{}},
	})
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			sw.Receive(dataPkt(1, 1440))
		}
	})
	s.RunUntil(1)
	q := sw.Port(0).Queue(0)
	if q.DropsNoBuffer == 0 {
		t.Fatal("expected buffer-full drops under CS")
	}
	if got := sw.MMU().Used(); got > 4500 {
		t.Fatalf("pool overflow: %v", got)
	}
	sw.MMU().checkInvariants()
}

func TestSharedBufferAcrossPorts(t *testing.T) {
	s := sim.New(1)
	cfg := SwitchConfig{NumPorts: 2, QueuesPerPort: 1, PortRate: 10 * units.GigabitPerSec,
		MMU: MMUConfig{BufferSize: 30000, BM: bm.CS{}}}
	sw := NewSwitch(s, cfg)
	sw.SetRouter(func(_ *Switch, p *packet.Packet) int { return int(p.FlowID % 2) })
	d0, d1 := &sink{id: 90, sim: s}, &sink{id: 91, sim: s}
	sw.ConnectPort(0, NewLink(s, units.Microsecond, d0))
	sw.ConnectPort(1, NewLink(s, units.Microsecond, d1))
	s.At(0, func() {
		for i := 0; i < 30; i++ {
			sw.Receive(dataPkt(uint64(i), 1440))
		}
	})
	s.RunUntil(1)
	// Both ports' queues draw from one pool: used = sum of both backlogs.
	used := sw.MMU().Used()
	if used != sw.Port(0).Backlog()+sw.Port(1).Backlog() {
		t.Fatalf("pool %v != backlogs %v+%v", used, sw.Port(0).Backlog(), sw.Port(1).Backlog())
	}
	sw.MMU().checkInvariants()
	drain(s, sw)
	if len(d0.pkts)+len(d1.pkts)+int(sw.TotalDrops()) != 30 {
		t.Fatalf("conservation: delivered %d+%d, dropped %d, want 30 total",
			len(d0.pkts), len(d1.pkts), sw.TotalDrops())
	}
}

func TestRoundRobinFairness(t *testing.T) {
	s := sim.New(1)
	cfg := SwitchConfig{NumPorts: 1, QueuesPerPort: 2, PortRate: 10 * units.GigabitPerSec,
		MMU: MMUConfig{BufferSize: units.Megabyte, BM: bm.CS{}}}
	sw := NewSwitch(s, cfg)
	sw.SetRouter(func(_ *Switch, _ *packet.Packet) int { return 0 })
	dst := &sink{id: 99, sim: s}
	sw.ConnectPort(0, NewLink(s, units.Microsecond, dst))
	s.At(0, func() {
		for i := 0; i < 20; i++ {
			p := dataPkt(uint64(i), 1440)
			p.Prio = uint8(i % 2)
			sw.Receive(p)
		}
	})
	drain(s, sw)
	// Deliveries must alternate between priorities.
	for i := 1; i < len(dst.pkts); i++ {
		if dst.pkts[i].Prio == dst.pkts[i-1].Prio {
			t.Fatalf("round robin should alternate, got %d then %d at %d",
				dst.pkts[i-1].Prio, dst.pkts[i].Prio, i)
		}
	}
}

func TestStrictPriority(t *testing.T) {
	s := sim.New(1)
	cfg := SwitchConfig{NumPorts: 1, QueuesPerPort: 2, PortRate: 10 * units.GigabitPerSec,
		NewScheduler: func() Scheduler { return StrictPriority{} },
		MMU:          MMUConfig{BufferSize: units.Megabyte, BM: bm.CS{}}}
	sw := NewSwitch(s, cfg)
	sw.SetRouter(func(_ *Switch, _ *packet.Packet) int { return 0 })
	dst := &sink{id: 99, sim: s}
	sw.ConnectPort(0, NewLink(s, units.Microsecond, dst))
	s.At(0, func() {
		// Low priority first, then high: high must still win.
		for i := 0; i < 5; i++ {
			p := dataPkt(uint64(i), 1440)
			p.Prio = 1
			sw.Receive(p)
		}
		for i := 5; i < 10; i++ {
			p := dataPkt(uint64(i), 1440)
			p.Prio = 0
			sw.Receive(p)
		}
	})
	drain(s, sw)
	// The first packet was already in transmission; all subsequent
	// prio-0 packets must precede remaining prio-1.
	var order []uint8
	for _, p := range dst.pkts {
		order = append(order, p.Prio)
	}
	// After position 0, we expect the five prio-0 then four prio-1.
	for i := 1; i <= 5; i++ {
		if order[i] != 0 {
			t.Fatalf("strict priority violated: %v", order)
		}
	}
}

func TestDWRRWeights(t *testing.T) {
	s := sim.New(1)
	cfg := SwitchConfig{NumPorts: 1, QueuesPerPort: 2, PortRate: 10 * units.GigabitPerSec,
		NewScheduler: func() Scheduler { return &DWRR{Weights: []int{3, 1}} },
		MMU:          MMUConfig{BufferSize: units.Megabyte, BM: bm.CS{}}}
	sw := NewSwitch(s, cfg)
	sw.SetRouter(func(_ *Switch, _ *packet.Packet) int { return 0 })
	dst := &sink{id: 99, sim: s}
	sw.ConnectPort(0, NewLink(s, units.Microsecond, dst))
	s.At(0, func() {
		for i := 0; i < 200; i++ {
			p := dataPkt(uint64(i), 1440)
			p.Prio = uint8(i % 2)
			sw.Receive(p)
		}
	})
	// Run long enough for ~40 departures, then count the mix.
	s.RunUntil(50 * units.Microsecond)
	var q0 int
	for _, p := range dst.pkts {
		if p.Prio == 0 {
			q0++
		}
	}
	total := len(dst.pkts)
	if total < 20 {
		t.Fatalf("too few deliveries to judge: %d", total)
	}
	frac := float64(q0) / float64(total)
	if frac < 0.6 || frac > 0.9 {
		t.Fatalf("weight-3 queue got %.2f of service, want ~0.75", frac)
	}
	sw.Stop()
}

func TestECNMarkingIntegration(t *testing.T) {
	s := sim.New(1)
	sw, dst := testSwitch(s, SwitchConfig{
		MMU: MMUConfig{
			BufferSize: units.Megabyte,
			BM:         bm.CS{},
			AQMFactory: func() aqm.Policy { return aqm.ECNThreshold{K: 3000} },
		},
	})
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			p := dataPkt(1, 1440)
			p.Set(packet.FlagECT)
			sw.Receive(p)
		}
	})
	drain(s, sw)
	marked := 0
	for _, p := range dst.pkts {
		if p.Is(packet.FlagCE) {
			marked++
		}
	}
	// The first packet dequeues immediately; arrivals 2-3 see a queue
	// under K; the remaining 7 are marked.
	if marked != 7 {
		t.Fatalf("marked %d, want 7", marked)
	}
	if got := sw.Port(0).Queue(0).MarkedPkts; got != 7 {
		t.Fatalf("queue mark counter = %d, want 7", got)
	}
}

func TestHeadroomForUnscheduled(t *testing.T) {
	s := sim.New(1)
	// Tiny shared pool: a burst of unscheduled packets must overflow into
	// headroom under ABM instead of dropping.
	sw, _ := testSwitch(s, SwitchConfig{
		MMU: MMUConfig{
			BufferSize: 3000,
			Headroom:   30000,
			BM:         bm.ABM{},
			Alphas:     []float64{0.5},
		},
	})
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			p := dataPkt(1, 1440)
			p.Set(packet.FlagUnscheduled)
			sw.Receive(p)
		}
	})
	s.RunUntil(1)
	m := sw.MMU()
	if m.HeadroomUsed() == 0 {
		t.Fatal("expected headroom to absorb the unscheduled burst")
	}
	m.checkInvariants()
	q := sw.Port(0).Queue(0)
	if q.TotalDrops() > 0 && m.HeadroomUsed() < 30000-1500 {
		t.Fatalf("dropped %d with headroom to spare (%v used)", q.TotalDrops(), m.HeadroomUsed())
	}
	s.Run()
	m.checkInvariants()
	if m.TotalUsed() != 0 {
		t.Fatalf("buffer not drained: %v", m.TotalUsed())
	}
}

func TestScheduledPacketsCannotUseHeadroom(t *testing.T) {
	s := sim.New(1)
	sw, _ := testSwitch(s, SwitchConfig{
		MMU: MMUConfig{BufferSize: 3000, Headroom: 30000, BM: bm.ABM{}, Alphas: []float64{0.5}},
	})
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			sw.Receive(dataPkt(1, 1440)) // no unscheduled tag
		}
	})
	s.RunUntil(1)
	if sw.MMU().HeadroomUsed() != 0 {
		t.Fatal("scheduled packets must not be charged to headroom under ABM")
	}
}

func TestINTAppending(t *testing.T) {
	s := sim.New(1)
	sw, dst := testSwitch(s, SwitchConfig{EnableINT: true})
	p := dataPkt(1, 1440)
	s.At(0, func() { sw.Receive(p) })
	drain(s, sw)
	if len(dst.pkts[0].Hops) != 1 {
		t.Fatalf("INT hops = %d, want 1", len(dst.pkts[0].Hops))
	}
	hop := dst.pkts[0].Hops[0]
	if hop.Rate != 10*units.GigabitPerSec {
		t.Fatalf("INT rate = %v", hop.Rate)
	}
	if hop.TxBytes != 1500 {
		t.Fatalf("INT txBytes = %v, want 1500", hop.TxBytes)
	}
	// ACKs are not stamped.
	ack := &packet.Packet{Flags: packet.FlagACK}
	s.At(s.Now(), func() { sw.Receive(ack) })
	drain(s, sw)
	if len(ack.Hops) != 0 {
		t.Fatal("ACKs must not accumulate INT")
	}
}

func TestCodelDequeueDropsIntegration(t *testing.T) {
	s := sim.New(1)
	sw, dst := testSwitch(s, SwitchConfig{
		PortRate: 100 * units.MegabitPerSec, // slow port: long sojourns
		MMU: MMUConfig{
			BufferSize: 10 * units.Megabyte,
			BM:         bm.CS{},
			AQMFactory: func() aqm.Policy { return aqm.NewCodel(units.Millisecond, 5*units.Millisecond) },
		},
	})
	s.At(0, func() {
		for i := 0; i < 600; i++ {
			sw.Receive(dataPkt(1, 1440))
		}
	})
	drain(s, sw)
	drops := sw.Port(0).Queue(0).DropsDequeue
	if drops == 0 {
		t.Fatal("codel should drop under sustained sojourn above target")
	}
	if len(dst.pkts)+int(drops) != 600 {
		t.Fatalf("conservation: %d delivered + %d dropped != 600", len(dst.pkts), drops)
	}
}

func TestInstantCongestedCount(t *testing.T) {
	s := sim.New(1)
	cfg := SwitchConfig{NumPorts: 3, QueuesPerPort: 1, PortRate: 10 * units.GigabitPerSec,
		MMU: MMUConfig{BufferSize: 100_000, BM: bm.DT{}, Alphas: []float64{0.5}}}
	sw := NewSwitch(s, cfg)
	sw.SetRouter(func(_ *Switch, p *packet.Packet) int { return int(p.FlowID % 3) })
	for i := 0; i < 3; i++ {
		sw.ConnectPort(i, NewLink(s, units.Microsecond, &sink{id: packet.NodeID(90 + i), sim: s}))
	}
	// Fill ports 0 and 1 to their thresholds.
	s.At(0, func() {
		for i := 0; i < 60; i++ {
			sw.Receive(dataPkt(uint64(i%2), 1440))
		}
	})
	s.RunUntil(1)
	n := sw.MMU().CongestedSamePrio(0)
	if n != 2 {
		t.Fatalf("congested queues = %d, want 2", n)
	}
}

func TestInstantNormDrainShare(t *testing.T) {
	s := sim.New(1)
	cfg := SwitchConfig{NumPorts: 1, QueuesPerPort: 4, PortRate: 10 * units.GigabitPerSec,
		MMU: MMUConfig{BufferSize: units.Megabyte, BM: bm.CS{}}}
	sw := NewSwitch(s, cfg)
	sw.SetRouter(func(_ *Switch, _ *packet.Packet) int { return 0 })
	sw.ConnectPort(0, NewLink(s, units.Microsecond, &sink{id: 99, sim: s}))
	s.At(0, func() {
		// Backlog queues 0 and 1.
		for i := 0; i < 8; i++ {
			p := dataPkt(uint64(i), 1440)
			p.Prio = uint8(i % 2)
			sw.Receive(p)
		}
	})
	s.RunUntil(1)
	m := sw.MMU()
	// Queues 0,1 active: each gets 1/2. Queue 2 idle: would join as 3rd.
	if got := m.NormDrain(0, 0); got != 0.5 {
		t.Fatalf("active queue share = %v, want 0.5", got)
	}
	if got := m.NormDrain(0, 2); got < 0.32 || got > 0.34 {
		t.Fatalf("idle queue share = %v, want 1/3", got)
	}
}

func TestPeriodicStatsMode(t *testing.T) {
	s := sim.New(1)
	sw, _ := testSwitch(s, SwitchConfig{
		MMU: MMUConfig{
			BufferSize:    100_000,
			BM:            bm.ABM{},
			Alphas:        []float64{0.5},
			StatsInterval: 10 * units.Microsecond,
		},
	})
	s.At(0, func() {
		for i := 0; i < 40; i++ {
			sw.Receive(dataPkt(1, 1440))
		}
	})
	s.RunUntil(50 * units.Microsecond)
	// After a few ticks the congested count must reflect the backlog.
	if n := sw.MMU().CongestedSamePrio(0); n < 1 {
		t.Fatalf("congested = %d", n)
	}
	sw.Stop()
	s.Run()
	sw.MMU().checkInvariants()
}

func TestMeasuredDrainRate(t *testing.T) {
	s := sim.New(1)
	sw, _ := testSwitch(s, SwitchConfig{
		MMU: MMUConfig{
			BufferSize:    units.Megabyte,
			BM:            bm.CS{},
			StatsInterval: 12 * units.Microsecond,
			DrainRate:     DrainRateMeasured,
		},
	})
	s.At(0, func() {
		for i := 0; i < 30; i++ {
			sw.Receive(dataPkt(1, 1440))
		}
	})
	// One backlogged queue drains at full port rate; after a tick the
	// measured estimate must be ~1.
	s.RunUntil(13 * units.Microsecond)
	got := sw.MMU().NormDrain(0, 0)
	if got < 0.9 || got > 1.0 {
		t.Fatalf("measured norm drain = %v, want ~1", got)
	}
	sw.Stop()
}

func TestTrimIntegration(t *testing.T) {
	s := sim.New(1)
	sess, err := obs.NewSession(obs.Options{Counters: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sw, dst := testSwitch(s, SwitchConfig{
		Obs: sess.ShardSink(0),
		MMU: MMUConfig{
			BufferSize: units.Megabyte,
			BM:         bm.CS{},
			AQMFactory: func() aqm.Policy { return aqm.CutPayload{TrimAbove: 3000} },
		},
	})
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			sw.Receive(dataPkt(1, 1440))
		}
	})
	s.Run()
	trimmed := 0
	for _, p := range dst.pkts {
		if p.Is(packet.FlagTrimmed) {
			trimmed++
		}
	}
	if trimmed != 7 {
		t.Fatalf("trimmed %d, want 7", trimmed)
	}
	if got := sess.Totals()["model/trimmed_pkts"]; got != 7 {
		t.Fatalf("trim counter = %d, want 7", got)
	}
	sw.MMU().checkInvariants()
}

// Property-style fuzz: random bursts with random policies never violate
// the buffer accounting invariants or lose conservation.
func TestInvariantsUnderRandomTraffic(t *testing.T) {
	policies := []bm.Policy{bm.DT{}, bm.CS{}, bm.ABM{}, bm.NewFAB(0, 0), bm.NewIB(), bm.CP{NumQueues: 8}}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			s := sim.New(7)
			rng := rand.New(rand.NewSource(13))
			cfg := SwitchConfig{NumPorts: 4, QueuesPerPort: 2, PortRate: 10 * units.GigabitPerSec,
				MMU: MMUConfig{BufferSize: 50_000, Headroom: 10_000, BM: pol,
					Alphas: []float64{0.5, 0.5}, StatsInterval: 5 * units.Microsecond}}
			sw := NewSwitch(s, cfg)
			sw.SetRouter(func(_ *Switch, p *packet.Packet) int { return int(p.FlowID) % 4 })
			sinks := make([]*sink, 4)
			for i := range sinks {
				sinks[i] = &sink{id: packet.NodeID(90 + i), sim: s}
				sw.ConnectPort(i, NewLink(s, units.Microsecond, sinks[i]))
			}
			sent := 0
			for i := 0; i < 400; i++ {
				at := units.Time(rng.Int63n(int64(100 * units.Microsecond)))
				p := dataPkt(uint64(rng.Intn(16)), units.ByteCount(rng.Intn(1440)+1))
				p.Prio = uint8(rng.Intn(2))
				if rng.Intn(3) == 0 {
					p.Set(packet.FlagUnscheduled)
				}
				sent++
				s.At(at, func() {
					sw.Receive(p)
					sw.MMU().checkInvariants()
				})
			}
			s.RunUntil(95 * units.Microsecond)
			sw.MMU().checkInvariants()
			sw.Stop()
			s.Run()
			sw.MMU().checkInvariants()
			if sw.MMU().TotalUsed() != 0 {
				t.Fatalf("buffer not drained: %v", sw.MMU().TotalUsed())
			}
			delivered := 0
			for _, k := range sinks {
				delivered += len(k.pkts)
			}
			if delivered+int(sw.TotalDrops()) != sent {
				t.Fatalf("conservation: %d delivered + %d dropped != %d sent",
					delivered, sw.TotalDrops(), sent)
			}
		})
	}
}

func TestNormShare(t *testing.T) {
	rr := &RoundRobin{}
	if got := NormShare(rr, []int{0, 1}, 0); got != 0.5 {
		t.Fatalf("rr share = %v", got)
	}
	if got := NormShare(rr, []int{1}, 0); got != 0.5 {
		t.Fatalf("rr join share = %v", got)
	}
	if got := NormShare(rr, nil, 0); got != 1 {
		t.Fatalf("rr sole share = %v", got)
	}
	d := &DWRR{Weights: []int{3, 1}}
	if got := NormShare(d, []int{0, 1}, 0); got != 0.75 {
		t.Fatalf("dwrr share = %v", got)
	}
	sp := StrictPriority{}
	if got := NormShare(sp, []int{0, 1}, 0); got != 1 {
		t.Fatalf("strict high share = %v", got)
	}
	if got := NormShare(sp, []int{0, 1}, 1); got != 0.01 {
		t.Fatalf("strict low share = %v", got)
	}
}

func TestLinkValidation(t *testing.T) {
	s := sim.New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil destination")
		}
	}()
	NewLink(s, 0, nil)
}

func TestSwitchConfigValidation(t *testing.T) {
	s := sim.New(1)
	for _, cfg := range []SwitchConfig{
		{NumPorts: 0, QueuesPerPort: 1, PortRate: 1},
		{NumPorts: 1, QueuesPerPort: 0, PortRate: 1},
		{NumPorts: 1, QueuesPerPort: 1, PortRate: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %+v", cfg)
				}
			}()
			cfg.MMU.BufferSize = 1000
			NewSwitch(s, cfg)
		}()
	}
}

func TestQueueWatermark(t *testing.T) {
	s := sim.New(1)
	sw, _ := testSwitch(s, SwitchConfig{})
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			sw.Receive(dataPkt(1, 1440))
		}
	})
	s.RunUntil(1)
	q := sw.Port(0).Queue(0)
	peak := q.MaxBytes
	if peak < 9*1500 {
		t.Fatalf("watermark %v, want >= 9 packets", peak)
	}
	drain(s, sw)
	if q.Bytes() != 0 {
		t.Fatal("queue should drain")
	}
	if q.MaxBytes != peak {
		t.Fatal("watermark must persist after drain")
	}
}

func TestINTMultiHop(t *testing.T) {
	// Chain two switches: the packet must accumulate one INT entry per
	// hop, in path order.
	s := sim.New(1)
	cfgA := SwitchConfig{NumPorts: 1, QueuesPerPort: 1, PortRate: 10 * units.GigabitPerSec,
		EnableINT: true, MMU: MMUConfig{BufferSize: units.Megabyte, BM: bm.CS{}}}
	swB := NewSwitch(s, cfgA)
	swA := NewSwitch(s, cfgA)
	swA.SetRouter(func(_ *Switch, _ *packet.Packet) int { return 0 })
	swB.SetRouter(func(_ *Switch, _ *packet.Packet) int { return 0 })
	dst := &sink{id: 99, sim: s}
	swA.ConnectPort(0, NewLink(s, units.Microsecond, swB))
	swB.ConnectPort(0, NewLink(s, units.Microsecond, dst))
	p := dataPkt(1, 1440)
	s.At(0, func() { swA.Receive(p) })
	drain(s, swA, swB)
	if len(dst.pkts) != 1 {
		t.Fatal("packet lost")
	}
	hops := dst.pkts[0].Hops
	if len(hops) != 2 {
		t.Fatalf("INT hops = %d, want 2", len(hops))
	}
	if hops[0].TS >= hops[1].TS {
		t.Fatalf("hop timestamps out of order: %v, %v", hops[0].TS, hops[1].TS)
	}
}

// TestSetRateBetweenTransmissions is the link-degrade path
// (topo.ApplyLinkEvent -> Port.SetRate): a rate change while a packet
// serializes leaves that packet on the old rate and times the next one
// at exactly newRate.TxTime(size) — including a rate whose per-byte
// time is fractional, where the port's cached factor must give way to
// the rounded-up division.
func TestSetRateBetweenTransmissions(t *testing.T) {
	const prop = 10 * units.Microsecond
	for _, newRate := range []units.Rate{25 * units.GigabitPerSec, 3 * units.GigabitPerSec, units.GigabitPerSec} {
		s := sim.New(1)
		sw, dst := testSwitch(s, SwitchConfig{})
		oldRate := sw.Port(0).Rate()
		sizes := []units.ByteCount{1440, 777, 1}
		s.At(0, func() {
			for i, sz := range sizes {
				sw.Receive(dataPkt(uint64(i), sz))
			}
		})
		// Mid-way through the first serialization (1.2us at 10G).
		s.At(500*units.Nanosecond, func() { sw.Port(0).SetRate(newRate) })
		drain(s, sw)
		if got := sw.Port(0).Rate(); got != newRate {
			t.Fatalf("Rate() = %v after SetRate(%v)", got, newRate)
		}
		want := oldRate.TxTime(sizes[0] + packet.HeaderBytes)
		for i, sz := range sizes {
			if i > 0 {
				want += newRate.TxTime(sz + packet.HeaderBytes)
			}
			if got := dst.arrived[i] - prop; got != want {
				t.Fatalf("new rate %v: packet %d left at %v, want %v", newRate, i, got, want)
			}
		}
	}
}

// refRoundRobin is RoundRobin.Next as it was written before the modulo
// was removed: the reference the rotating index is checked against.
func refRoundRobin(last *int, qs []Queue) *Queue {
	n := len(qs)
	for i := 1; i <= n; i++ {
		idx := (*last + i) % n
		if qs[idx].Len() > 0 {
			*last = idx
			return &qs[idx]
		}
	}
	return nil
}

// TestRoundRobinMatchesModulo drives RoundRobin and the modulo
// formulation side by side over random backlog patterns on 1-8 queues:
// every pick, including nil on an empty port, must be the same queue.
func TestRoundRobinMatchesModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 8; n++ {
		qs := make([]Queue, n)
		rr, last := &RoundRobin{}, 0
		for step := 0; step < 5000; step++ {
			// Random arrivals, biased so the port is sometimes empty and
			// sometimes has every queue backlogged.
			for i := range qs {
				if rng.Intn(4) == 0 {
					qs[i].push(dataPkt(uint64(step), 1), 0)
				}
			}
			for serve := rng.Intn(n + 2); serve > 0; serve-- {
				got, want := rr.Next(qs), refRoundRobin(&last, qs)
				if got != want {
					t.Fatalf("n=%d step %d: picked %v, modulo formulation picks %v", n, step, got, want)
				}
				if got == nil {
					break
				}
				got.pop()
			}
		}
	}
}

// refDWRR is DWRR as it was written before its backlog scan was folded
// into one bitset per call and its modulo removed: the reference
// TestDWRRMatchesReference checks the scheduler against.
type refDWRR struct {
	Weights []int
	Quantum int64

	deficits   []int64
	cur        int
	needCredit bool
	inited     bool
}

func (d *refDWRR) Next(qs []Queue) *Queue {
	n := len(qs)
	if !d.inited {
		d.deficits = make([]int64, n)
		d.needCredit = true
		d.inited = true
	}
	if d.Quantum <= 0 {
		d.Quantum = 1500
	}
	anyBacklog := false
	for i := range qs {
		if qs[i].Len() > 0 {
			anyBacklog = true
			break
		}
	}
	if !anyBacklog {
		return nil
	}
	for iter := 0; iter < 16*n; iter++ {
		q := &qs[d.cur]
		if q.Len() == 0 {
			d.deficits[d.cur] = 0
			d.advance(n)
			continue
		}
		if d.needCredit {
			d.deficits[d.cur] += d.weight(d.cur) * d.Quantum
			d.needCredit = false
		}
		head := int64(q.fifo.Head().Size())
		if d.deficits[d.cur] >= head {
			d.deficits[d.cur] -= head
			return q
		}
		d.advance(n)
	}
	for i := range qs {
		if qs[i].Len() > 0 {
			return &qs[i]
		}
	}
	return nil
}

func (d *refDWRR) advance(n int) {
	d.cur = (d.cur + 1) % n
	d.needCredit = true
}

func (d *refDWRR) weight(i int) int64 {
	if i < len(d.Weights) && d.Weights[i] > 0 {
		return int64(d.Weights[i])
	}
	return 1
}

// TestDWRRMatchesReference drives DWRR and refDWRR side by side over
// random backlog patterns, packet sizes, weights and quanta on 1-8
// queues and on 67 (a backlog bitset of two words): every pick,
// including nil on an empty port, must be the same queue, and the
// deficits and the visit position must agree after it.
func TestDWRRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 67} {
		// Some weights missing or non-positive (default 1), quantum
		// sometimes unset (default MTU) or smaller than a packet.
		weights := make([]int, rng.Intn(n+1))
		for i := range weights {
			weights[i] = rng.Intn(5) - 1
		}
		quantum := []int64{0, 300, 1500, 4000}[rng.Intn(4)]
		qs := make([]Queue, n)
		got, want := &DWRR{Weights: weights, Quantum: quantum}, &refDWRR{Weights: weights, Quantum: quantum}
		for step := 0; step < 3000; step++ {
			for i := range qs {
				if rng.Intn(3*n) < 2 {
					qs[i].push(dataPkt(uint64(step), units.ByteCount(1+rng.Intn(1440))), 0)
				}
			}
			for serve := rng.Intn(n + 2); serve > 0; serve-- {
				g, w := got.Next(qs), want.Next(qs)
				if g != w {
					t.Fatalf("n=%d step %d: picked %v, reference picks %v", n, step, g, w)
				}
				if got.cur != want.cur || got.needCredit != want.needCredit {
					t.Fatalf("n=%d step %d: cur/needCredit %d/%v, reference %d/%v", n, step, got.cur, got.needCredit, want.cur, want.needCredit)
				}
				for i := range got.deficits {
					if got.deficits[i] != want.deficits[i] {
						t.Fatalf("n=%d step %d: deficit[%d]=%d, reference %d", n, step, i, got.deficits[i], want.deficits[i])
					}
				}
				if g == nil {
					break
				}
				g.pop()
			}
		}
	}
}

// TestSwitchStreamBuiltOnFirstDraw checks that the MMU calls the
// switch's RNG constructor only when a policy draws from the stream:
// never under DT or ABM, nor behind an ECN threshold, which decides
// from the queue alone, and once under IB, whose drops then equal
// those of a stream seeded when the switch is built.
func TestSwitchStreamBuiltOnFirstDraw(t *testing.T) {
	const seed = 11
	// run sends two 1440-byte flows at twice the port's line rate into
	// one queue and returns the constructor calls and the queue's drops.
	run := func(pol bm.Policy, ecn, eager bool) (builds int, afd, total int64) {
		s := sim.New(7)
		cfg := SwitchConfig{
			MMU: MMUConfig{BufferSize: 500 * units.Kilobyte, BM: pol, StatsInterval: 10 * units.Microsecond},
			RNG: func() *rand.Rand { builds++; return rand.New(rand.NewSource(seed)) },
		}
		if ecn {
			cfg.MMU.AQMFactory = func() aqm.Policy { return aqm.ECNThreshold{K: 30 * units.Kilobyte} }
		}
		sw, _ := testSwitch(s, cfg)
		if eager {
			// The stream the MMU drew from before it seeded on demand.
			sw.mmu.rng = rand.New(rand.NewSource(seed))
		}
		for i := 0; i < 2000; i++ {
			for flow := uint64(1); flow <= 2; flow++ {
				p := dataPkt(flow, 1440)
				p.Set(packet.FlagECT)
				s.At(units.Time(i)*1200*units.Nanosecond, func() { sw.Receive(p) })
			}
		}
		s.RunUntil(3 * units.Millisecond)
		sw.Stop()
		drain(s, sw)
		q := sw.Port(0).Queue(0)
		return builds, q.DropsAFD, q.TotalDrops()
	}
	for _, c := range []struct {
		name string
		pol  bm.Policy
		ecn  bool
	}{{"DT", bm.DT{}, false}, {"ABM", bm.ABM{}, false}, {"DT+ECN", bm.DT{}, true}} {
		if builds, _, drops := run(c.pol, c.ecn, false); builds != 0 || drops == 0 {
			t.Errorf("%s: %d stream builds and %d drops, want none and some", c.name, builds, drops)
		}
	}
	ib := func() bm.Policy {
		return &bm.IB{ElephantBytes: 20 * units.Kilobyte, TargetQueue: 20 * units.Kilobyte,
			Window: 100 * units.Microsecond, MaxDropProb: 0.5}
	}
	builds, afd, total := run(ib(), false, false)
	_, eagerAFD, eagerTotal := run(ib(), false, true)
	if builds != 1 || afd == 0 {
		t.Fatalf("IB: %d stream builds and %d AFD drops, want one and some", builds, afd)
	}
	t.Logf("IB: %d drops, %d of them AFD", total, afd)
	if afd != eagerAFD || total != eagerTotal {
		t.Errorf("IB drops %d (AFD %d) seeded on the first draw, %d (AFD %d) seeded at build", total, afd, eagerTotal, eagerAFD)
	}
}
