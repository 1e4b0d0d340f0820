package transport

import (
	"testing"

	"abm/internal/packet"
	"abm/internal/sim"
	"abm/internal/units"
)

// Every data packet vanishes: the sender must back off its RTO
// exponentially instead of hammering the fabric.
func TestRTOExponentialBackoff(t *testing.T) {
	alg := &stubCC{cwnd: 4 * 1440}
	p := newPipe(t, 4*1440, alg, Config{})
	var sendTimes []units.Time
	p.faults = func(pkt *packet.Packet) bool {
		sendTimes = append(sendTimes, p.s.Now())
		return true // black hole
	}
	p.s.At(0, func() { p.snd.Start() })
	p.s.RunUntil(500 * units.Millisecond)
	if p.done {
		t.Fatal("flow cannot complete through a black hole")
	}
	// Collect the retransmission gaps (ignore the initial burst at ~0).
	var gaps []units.Time
	prev := units.Time(-1)
	for _, ts := range sendTimes {
		if ts == 0 {
			continue
		}
		if prev >= 0 {
			gaps = append(gaps, ts-prev)
		}
		prev = ts
	}
	if len(gaps) < 3 {
		t.Fatalf("too few retransmissions: %d", len(gaps))
	}
	for i := 1; i < len(gaps); i++ {
		if gaps[i] < gaps[i-1] {
			t.Fatalf("RTO gaps must be nondecreasing: %v", gaps)
		}
	}
	// The first retransmission waits at least minRTO.
	if gaps[0] < 10*units.Millisecond {
		t.Fatalf("first backoff gap %v below minRTO", gaps[0])
	}
}

// A new ACK resets the backoff.
func TestRTOBackoffResetsOnProgress(t *testing.T) {
	alg := &stubCC{cwnd: 1440}
	p := newPipe(t, 3*1440, alg, Config{})
	drop := true
	p.faults = func(pkt *packet.Packet) bool {
		if drop && pkt.Seq == 0 {
			return true // drop first segment until backoff kicks in
		}
		return false
	}
	p.s.At(0, func() { p.snd.Start() })
	// Let two RTOs fire, then heal the path.
	p.s.RunUntil(40 * units.Millisecond)
	if p.snd.rec.Timeouts < 1 {
		t.Fatal("expected timeouts while the path is broken")
	}
	drop = false
	p.s.RunUntil(2 * units.Second)
	if !p.done {
		t.Fatal("flow did not complete after the path healed")
	}
}

// MaxRTO caps the backoff.
func TestRTOCappedAtMax(t *testing.T) {
	s := sim.New(1)
	sn := NewSender(s, Config{MaxRTO: 20 * units.Millisecond}, &stubCC{cwnd: 1440},
		1, 1, 2, 1440, func(*packet.Packet) {}, nil)
	sn.Start()
	s.RunUntil(2 * units.Second)
	// With a 20ms cap, two seconds fit at least ~90 timeouts; without the
	// cap exponential backoff would allow only ~7.
	if sn.rec.Timeouts < 50 {
		t.Fatalf("timeouts = %d, backoff cap not applied", sn.rec.Timeouts)
	}
}

// SRTT tracks a changing path delay.
func TestSRTTAdapts(t *testing.T) {
	alg := &stubCC{cwnd: 1440} // one packet at a time: clean samples
	p := newPipe(t, 40*1440, alg, Config{})
	p.s.At(0, func() { p.snd.Start() })
	p.s.RunUntil(200 * units.Microsecond) // ~10 of 40 packets done
	first := p.snd.SRTT()
	if p.done {
		t.Fatal("flow finished too early for the test setup")
	}
	// Slow the path 5x mid-flow.
	p.delay = 50 * units.Microsecond
	p.s.RunUntil(40 * units.Millisecond)
	if !p.done {
		t.Fatal("flow did not complete")
	}
	if p.snd.SRTT() <= first {
		t.Fatalf("SRTT did not adapt upward: %v -> %v", first, p.snd.SRTT())
	}
}

// The hybrid engine's Demote tears the RTO down and Promote re-arms it:
// nothing may fire while the flow is fluid, and after promotion the
// timeout runs from the promotion instant, not from a deadline armed
// before the demotion.
func TestRTORearmsAcrossDemotePromote(t *testing.T) {
	alg := &stubCC{cwnd: 2 * 1440}
	p := newPipe(t, 100*1440, alg, Config{})
	p.s.At(0, func() { p.snd.Start() })
	p.s.RunUntil(100 * units.Microsecond) // a few clean RTTs; RTO armed ~10ms out
	if p.snd.SndUna() == 0 || p.done {
		t.Fatal("setup: flow should be mid-transfer")
	}
	p.snd.Demote()
	p.s.RunUntil(30 * units.Millisecond) // three minRTOs in fluid mode
	if p.snd.rec.Timeouts != 0 {
		t.Fatalf("RTO fired %d times while fluid", p.snd.rec.Timeouts)
	}
	p.faults = func(*packet.Packet) bool { return true } // black hole from here on
	at := p.s.Now()
	p.snd.Promote(p.snd.SndUna() + 10*1440)
	rto := p.snd.RTO()
	p.s.RunUntil(at + rto - 1)
	if p.snd.rec.Timeouts != 0 {
		t.Fatalf("RTO fired before promotion time + RTO (%v)", rto)
	}
	p.s.RunUntil(at + rto)
	if p.snd.rec.Timeouts != 1 {
		t.Fatalf("timeouts = %d at promotion time + RTO, want 1", p.snd.rec.Timeouts)
	}
	// A second demotion with the backed-off timer pending stops it too.
	p.snd.Demote()
	p.s.RunUntil(at + 10*rto)
	if p.snd.rec.Timeouts != 1 {
		t.Fatalf("backed-off RTO fired while fluid: timeouts = %d", p.snd.rec.Timeouts)
	}
}
