package transport

import (
	"testing"
	"unsafe"

	"abm/internal/cc"
	"abm/internal/packet"
	"abm/internal/sim"
	"abm/internal/units"
)

// stubCC is a controllable congestion-control for transport tests.
type stubCC struct {
	cwnd    units.ByteCount
	rate    units.Rate
	ecn     bool
	acks    []cc.AckEvent
	recover int
	tmo     int
}

func (s *stubCC) Name() string            { return "stub" }
func (s *stubCC) Init(cc.Config)          {}
func (s *stubCC) OnAck(ev cc.AckEvent)    { s.acks = append(s.acks, ev) }
func (s *stubCC) OnRecovery(units.Time)   { s.recover++ }
func (s *stubCC) OnTimeout(units.Time)    { s.tmo++ }
func (s *stubCC) Window() units.ByteCount { return s.cwnd }
func (s *stubCC) PacingRate() units.Rate  { return s.rate }
func (s *stubCC) UsesECN() bool           { return s.ecn }
func (s *stubCC) NeedsINT() bool          { return false }

// nicFunc adapts a func to NIC.
type nicFunc func(*packet.Packet)

func (f nicFunc) Output(pkt *packet.Packet) { f(pkt) }

// newEndpoint returns the endpoint of host id whose packets go to out.
func newEndpoint(s *sim.Simulator, id packet.NodeID, cfg Config, out func(*packet.Packet)) *Endpoint {
	ep := new(Endpoint)
	ep.Init(s, id, cfg, nicFunc(out))
	return ep
}

// pipe wires a sender and receiver back-to-back with a fixed one-way
// delay and an optional fault hook on data packets.
type pipe struct {
	s     *sim.Simulator
	delay units.Time
	// faults returns true to drop the given data packet (called once per
	// transmission attempt).
	faults func(*packet.Packet) bool
	// mangle may modify data packets in flight (e.g. set CE).
	mangle func(*packet.Packet)

	snd *Sender
	rcv *Receiver

	// sent and retrans count the data packets the sender emitted.
	sent, retrans int

	done   bool
	doneAt units.Time
}

func newPipe(t *testing.T, size units.ByteCount, alg cc.Algorithm, cfg Config) *pipe {
	t.Helper()
	p := &pipe{s: sim.New(1), delay: 10 * units.Microsecond}
	p.rcv = NewReceiver(newEndpoint(p.s, 2, cfg, func(ack *packet.Packet) {
		p.s.After(p.delay, func() { p.snd.OnAck(ack) })
	}), 1, 1)
	p.snd = NewSender(newEndpoint(p.s, 1, cfg,
		func(pkt *packet.Packet) {
			p.sent++
			if pkt.Is(packet.FlagRetransmit) {
				p.retrans++
			}
			if p.faults != nil && p.faults(pkt) {
				return // dropped in the fabric
			}
			if p.mangle != nil {
				p.mangle(pkt)
			}
			p.s.After(p.delay, func() { p.rcv.OnData(pkt) })
		}), alg, 1, 2, size, 0,
		func(now units.Time) { p.done = true; p.doneAt = now })
	return p
}

func TestCleanTransferCompletes(t *testing.T) {
	alg := &stubCC{cwnd: 100 * 1440}
	p := newPipe(t, 10*1440, alg, Config{})
	p.s.At(0, func() { p.snd.Start() })
	p.s.Run()
	if !p.done {
		t.Fatal("flow did not complete")
	}
	if p.sent != 10 {
		t.Fatalf("sent %d packets, want 10", p.sent)
	}
	if p.retrans != 0 || p.snd.ep.Recovery.Timeouts != 0 {
		t.Fatalf("unexpected recovery: retrans=%d timeouts=%d", p.retrans, p.snd.ep.Recovery.Timeouts)
	}
	if p.rcv.BytesReceived != 10*1440 {
		t.Fatalf("receiver saw %v bytes", p.rcv.BytesReceived)
	}
	if p.rcv.RcvNxt() != 10*1440 {
		t.Fatalf("rcvNxt = %d", p.rcv.RcvNxt())
	}
	// FCT at least one RTT.
	if p.snd.FCT() < 20*units.Microsecond {
		t.Fatalf("FCT = %v implausibly low", p.snd.FCT())
	}
}

func TestWindowLimitsInflight(t *testing.T) {
	alg := &stubCC{cwnd: 2 * 1440} // two packets at a time
	p := newPipe(t, 10*1440, alg, Config{})
	maxInflight := units.ByteCount(0)
	p.faults = func(pkt *packet.Packet) bool {
		if inf := p.snd.inflight(); inf > maxInflight {
			maxInflight = inf
		}
		return false
	}
	p.s.At(0, func() { p.snd.Start() })
	p.s.Run()
	if !p.done {
		t.Fatal("flow did not complete")
	}
	// inflight is measured before the emitted packet is counted, so the
	// cap is cwnd (2 segments).
	if maxInflight > 2*1440 {
		t.Fatalf("inflight reached %v with cwnd 2 segments", maxInflight)
	}
}

func TestRTTEstimate(t *testing.T) {
	alg := &stubCC{cwnd: 4 * 1440}
	p := newPipe(t, 8*1440, alg, Config{})
	p.s.At(0, func() { p.snd.Start() })
	p.s.Run()
	// One-way delay 10us each way: RTT = 20us exactly (no queueing).
	if got := p.snd.SRTT(); got != 20*units.Microsecond {
		t.Fatalf("SRTT = %v, want 20us", got)
	}
	if p.snd.RTO() != 10*units.Millisecond {
		t.Fatalf("RTO = %v, want clamped to minRTO", p.snd.RTO())
	}
}

func TestFastRetransmitOnSingleLoss(t *testing.T) {
	alg := &stubCC{cwnd: 100 * 1440}
	p := newPipe(t, 20*1440, alg, Config{})
	dropped := false
	p.faults = func(pkt *packet.Packet) bool {
		if pkt.Seq == 5*1440 && !dropped && !pkt.Is(packet.FlagRetransmit) {
			dropped = true
			return true
		}
		return false
	}
	p.s.At(0, func() { p.snd.Start() })
	p.s.Run()
	if !p.done {
		t.Fatal("flow did not complete")
	}
	if p.snd.ep.Recovery.FastRetrans != 1 {
		t.Fatalf("fast retransmits = %d, want 1", p.snd.ep.Recovery.FastRetrans)
	}
	if p.snd.ep.Recovery.Timeouts != 0 {
		t.Fatalf("timeouts = %d, want 0 (dupacks should recover)", p.snd.ep.Recovery.Timeouts)
	}
	if alg.recover != 1 {
		t.Fatalf("cc recovery events = %d, want 1", alg.recover)
	}
	// Completion despite the loss means the hole was filled.
	if p.rcv.Gaps() != 0 {
		t.Fatalf("receiver still has %d gaps", p.rcv.Gaps())
	}
}

func TestRTORecoversTailLoss(t *testing.T) {
	alg := &stubCC{cwnd: 100 * 1440}
	p := newPipe(t, 5*1440, alg, Config{})
	dropped := false
	p.faults = func(pkt *packet.Packet) bool {
		// Drop the last segment once: no dupacks possible.
		if pkt.Seq == 4*1440 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	p.s.At(0, func() { p.snd.Start() })
	p.s.Run()
	if !p.done {
		t.Fatal("flow did not complete")
	}
	if p.snd.ep.Recovery.Timeouts < 1 {
		t.Fatal("tail loss must recover via RTO")
	}
	if alg.tmo < 1 {
		t.Fatal("cc did not see the timeout")
	}
	// Completion happened after minRTO.
	if p.doneAt < 10*units.Millisecond {
		t.Fatalf("completed at %v, before the RTO could fire", p.doneAt)
	}
}

func TestHeavyRandomLossEventuallyCompletes(t *testing.T) {
	alg := &stubCC{cwnd: 20 * 1440}
	p := newPipe(t, 50*1440, alg, Config{})
	rng := p.s.Rand()
	p.faults = func(pkt *packet.Packet) bool { return rng.Float64() < 0.3 }
	p.s.At(0, func() { p.snd.Start() })
	p.s.RunUntil(10 * units.Second)
	if !p.done {
		t.Fatalf("flow did not complete under 30%% loss (sent=%d retrans=%d timeouts=%d una=%d)",
			p.sent, p.retrans, p.snd.ep.Recovery.Timeouts, p.snd.sndUna)
	}
}

func TestUnscheduledTagging(t *testing.T) {
	alg := &stubCC{cwnd: 1000 * 1440}
	cfg := Config{UnscheduledBytes: 5 * 1440}
	p := newPipe(t, 20*1440, alg, cfg)
	var tagged, untagged int
	p.mangle = func(pkt *packet.Packet) {
		if pkt.Is(packet.FlagUnscheduled) {
			tagged++
		} else {
			untagged++
		}
	}
	p.s.At(0, func() { p.snd.Start() })
	p.s.Run()
	// Exactly the first 5 segments go out before any ACK (huge window) and
	// fall under the unscheduled budget.
	if tagged != 5 {
		t.Fatalf("tagged %d packets, want 5", tagged)
	}
	if untagged != 15 {
		t.Fatalf("untagged %d, want 15", untagged)
	}
}

func TestECNEchoReachesCC(t *testing.T) {
	alg := &stubCC{cwnd: 2 * 1440, ecn: true}
	p := newPipe(t, 6*1440, alg, Config{})
	p.mangle = func(pkt *packet.Packet) {
		if !pkt.Is(packet.FlagECT) {
			t.Error("ECN-capable flow must set ECT")
		}
		if pkt.Seq == 2*1440 {
			pkt.Set(packet.FlagCE) // switch marks this one
		}
	}
	p.s.At(0, func() { p.snd.Start() })
	p.s.Run()
	marked := 0
	for _, ev := range alg.acks {
		if ev.ECNMarked {
			marked++
		}
	}
	if marked != 1 {
		t.Fatalf("cc saw %d marked ACKs, want exactly 1", marked)
	}
}

func TestINTEcho(t *testing.T) {
	alg := &stubCC{cwnd: 2 * 1440}
	p := newPipe(t, 2*1440, alg, Config{})
	p.mangle = func(pkt *packet.Packet) {
		pkt.Hops = append(pkt.Hops, packet.HopINT{QLen: 777, Rate: units.GigabitPerSec})
	}
	p.s.At(0, func() { p.snd.Start() })
	p.s.Run()
	if len(alg.acks) == 0 || len(alg.acks[0].INT) != 1 || alg.acks[0].INT[0].QLen != 777 {
		t.Fatal("telemetry was not echoed to the sender's cc")
	}
}

func TestPacingSpacesPackets(t *testing.T) {
	alg := &stubCC{cwnd: 1000 * 1440, rate: units.GigabitPerSec}
	p := newPipe(t, 10*1440, alg, Config{})
	var sendTimes []units.Time
	p.mangle = func(pkt *packet.Packet) { sendTimes = append(sendTimes, p.s.Now()) }
	p.s.At(0, func() { p.snd.Start() })
	p.s.Run()
	if len(sendTimes) != 10 {
		t.Fatalf("sent %d", len(sendTimes))
	}
	// 1500B at 1Gb/s = 12us spacing.
	for i := 1; i < len(sendTimes); i++ {
		gap := sendTimes[i] - sendTimes[i-1]
		if gap < 11*units.Microsecond {
			t.Fatalf("pacing gap %v too small at %d", gap, i)
		}
	}
}

func TestTrimmedPacketTriggersDupAcks(t *testing.T) {
	alg := &stubCC{cwnd: 100 * 1440}
	p := newPipe(t, 10*1440, alg, Config{})
	trimmedOnce := false
	p.mangle = func(pkt *packet.Packet) {
		if pkt.Seq == 2*1440 && !trimmedOnce && !pkt.Is(packet.FlagRetransmit) {
			trimmedOnce = true
			pkt.Trim()
		}
	}
	p.s.At(0, func() { p.snd.Start() })
	p.s.Run()
	if !p.done {
		t.Fatal("flow did not complete after trim")
	}
	if p.rcv.TrimmedSeen != 1 {
		t.Fatalf("receiver saw %d trimmed, want 1", p.rcv.TrimmedSeen)
	}
	if p.snd.ep.Recovery.FastRetrans != 1 {
		t.Fatalf("trim should drive fast retransmit, got %d", p.snd.ep.Recovery.FastRetrans)
	}
	if p.snd.ep.Recovery.Timeouts != 0 {
		t.Fatal("trim recovery must not need a timeout")
	}
}

func TestSenderPanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := sim.New(1)
	NewSender(newEndpoint(s, 1, Config{}, nil), &stubCC{}, 1, 2, 0, 0, nil)
}

func TestFCTPanicsBeforeFinish(t *testing.T) {
	s := sim.New(1)
	sn := NewSender(newEndpoint(s, 1, Config{}, func(*packet.Packet) {}), &stubCC{cwnd: 1440}, 1, 2, 1440, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sn.FCT()
}

func TestReceiverIntervalMerging(t *testing.T) {
	s := sim.New(1)
	r := NewReceiver(newEndpoint(s, 2, Config{}, func(*packet.Packet) {}), 1, 1)
	// Out of order: [10,20) then [0,10) then duplicate [5,15).
	r.insert(10, 20)
	if r.RcvNxt() != 0 || r.Gaps() != 1 {
		t.Fatalf("rcvNxt=%d gaps=%d", r.RcvNxt(), r.Gaps())
	}
	r.insert(0, 10)
	if r.RcvNxt() != 20 || r.Gaps() != 0 {
		t.Fatalf("after fill: rcvNxt=%d gaps=%d", r.RcvNxt(), r.Gaps())
	}
	r.insert(5, 15) // fully duplicate
	if r.RcvNxt() != 20 {
		t.Fatalf("duplicate moved rcvNxt to %d", r.RcvNxt())
	}
	// Disjoint spans merge on adjacency.
	r.insert(30, 40)
	r.insert(50, 60)
	r.insert(40, 50)
	if r.Gaps() != 1 {
		t.Fatalf("expected single merged span, gaps=%d", r.Gaps())
	}
	r.insert(20, 30)
	if r.RcvNxt() != 60 || r.Gaps() != 0 {
		t.Fatalf("final: rcvNxt=%d gaps=%d", r.RcvNxt(), r.Gaps())
	}
}

// TestReceiverMiddleGapInsert pins the fix for a span-list aliasing bug:
// inserting a new range strictly between existing spans, with at least
// two spans after the insertion point, used to overwrite the unread tail
// of the list while it was being rebuilt in place — every span after the
// insertion point was replaced by a copy of the span just before it, so
// already-received ranges were forgotten and had to be retransmitted.
func TestReceiverMiddleGapInsert(t *testing.T) {
	s := sim.New(1)
	r := NewReceiver(newEndpoint(s, 2, Config{}, func(*packet.Packet) {}), 1, 1)
	r.insert(10, 20)
	r.insert(30, 40)
	r.insert(50, 60)
	if r.Gaps() != 3 {
		t.Fatalf("setup gaps=%d, want 3", r.Gaps())
	}
	// Middle insertion between the first and second spans.
	r.insert(22, 25)
	if r.Gaps() != 4 {
		t.Fatalf("after middle insert gaps=%d, want 4", r.Gaps())
	}
	// Fill every hole; the cumulative point must reach the end, which
	// requires that [30,40) and [50,60) survived the middle insertion.
	r.insert(0, 10)
	r.insert(20, 22)
	r.insert(25, 30)
	r.insert(40, 50)
	if r.RcvNxt() != 60 || r.Gaps() != 0 {
		t.Fatalf("after filling: rcvNxt=%d gaps=%d, want 60/0", r.RcvNxt(), r.Gaps())
	}
}

// TestReceiverInOrderInsertZeroAlloc pins the steady-state allocation
// contract of the hot path: once warm, in-order delivery must not touch
// the heap (the span buffers are reused via swap, never resliced away).
// A far hole stays open throughout, so every insert goes through the
// merge and advance with the buffer pair held; TestReceiverOnDataZeroAlloc
// covers delivery with no hole.
func TestReceiverInOrderInsertZeroAlloc(t *testing.T) {
	s := sim.New(1)
	r := NewReceiver(newEndpoint(s, 2, Config{}, func(*packet.Packet) {}), 1, 1)
	const far = int64(1) << 40
	r.insert(far, far+1440) // open the hole
	next := int64(0)
	r.insert(next, next+1440) // warm the span buffers
	next += 1440
	allocs := testing.AllocsPerRun(100, func() {
		r.insert(next, next+1440)
		next += 1440
	})
	if allocs != 0 {
		t.Fatalf("in-order insert allocates %.1f objects/op, want 0", allocs)
	}
	if r.holes == nil || r.Gaps() != 1 || r.RcvNxt() != next {
		t.Fatalf("after in-order inserts: gaps=%d rcvNxt=%d, want the far hole held and rcvNxt=%d", r.Gaps(), r.RcvNxt(), next)
	}
}

// TestReceiverOnDataZeroAlloc extends the contract to the whole data
// path on a warm receiver: the ACK comes from the simulator's free
// list, and the receiver holds no span buffers while it has no hole.
// A receiver that closed a hole hands its buffers back to the endpoint.
func TestReceiverOnDataZeroAlloc(t *testing.T) {
	s := sim.New(1)
	r := NewReceiver(newEndpoint(s, 2, Config{}, s.FreePacket), 1, 1)
	data := s.NewPacket()
	data.FlowID, data.Src, data.Dst, data.Payload = 1, 1, 2, 1440
	next := int64(0)
	deliver := func() {
		data.Seq = next
		r.OnData(data)
		next += 1440
	}
	data.Seq = 1440 // a hole, filled by the first deliver
	r.OnData(data)
	deliver()
	next += 1440
	if r.holes != nil || r.Gaps() != 0 || r.RcvNxt() != next {
		t.Fatalf("closed hole: holes=%v gaps=%d rcvNxt=%d, want nil/0/%d", r.holes, r.Gaps(), r.RcvNxt(), next)
	}
	if allocs := testing.AllocsPerRun(100, deliver); allocs != 0 {
		t.Fatalf("in-order OnData allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFlowStateSize pins the per-flow structs on 64-bit platforms:
// what every flow of a host shares belongs on its Endpoint.
func TestFlowStateSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Sender{}); got > 240 {
		t.Errorf("Sender is %d bytes, want at most 240", got)
	}
	if got := unsafe.Sizeof(Receiver{}); got > 56 {
		t.Errorf("Receiver is %d bytes, want at most 56", got)
	}
}

func TestShortFlowSinglePacket(t *testing.T) {
	alg := &stubCC{cwnd: 10 * 1440}
	p := newPipe(t, 100, alg, Config{}) // sub-MSS flow
	p.s.At(0, func() { p.snd.Start() })
	p.s.Run()
	if !p.done {
		t.Fatal("single-packet flow did not complete")
	}
	if p.sent != 1 {
		t.Fatalf("sent %d, want 1", p.sent)
	}
}
