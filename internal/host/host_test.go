package host

import (
	"testing"

	"abm/internal/cc"
	"abm/internal/device"
	"abm/internal/packet"
	"abm/internal/sim"
	"abm/internal/units"
)

// loop wires two hosts back-to-back through links (no switch).
func loop(t *testing.T, s *sim.Simulator) (*Host, *Host) {
	t.Helper()
	cfg := Config{Rate: 10 * units.GigabitPerSec, BaseRTT: 80 * units.Microsecond}
	a := New(s, func() Config { c := cfg; c.ID = 1; return c }())
	b := New(s, func() Config { c := cfg; c.ID = 2; return c }())
	a.Connect(device.NewLink(s, 10*units.Microsecond, b))
	b.Connect(device.NewLink(s, 10*units.Microsecond, a))
	return a, b
}

func TestHostToHostFlow(t *testing.T) {
	s := sim.New(1)
	a, b := loop(t, s)
	done := false
	a.StartFlow(1, 2, 100*units.Kilobyte, 0, cc.NewReno(), func(units.Time) { done = true })
	s.RunUntil(100 * units.Millisecond)
	if !done {
		t.Fatal("flow did not complete")
	}
	if b.RxBytes != 100*units.Kilobyte {
		t.Fatalf("receiver goodput = %v", b.RxBytes)
	}
	if sn := a.Sender(1); sn == nil || !sn.Finished() {
		t.Fatal("sender still active after completion")
	}
	if a.Sender(2) != nil {
		t.Fatal("Sender returned an endpoint for a flow that never started")
	}
}

func TestNICSerializesAtLineRate(t *testing.T) {
	s := sim.New(1)
	cfg := Config{ID: 1, Rate: units.GigabitPerSec, BaseRTT: 80 * units.Microsecond}
	h := New(s, cfg)
	var arrivals []units.Time
	dst := &captureEndpoint{id: 2, s: s, on: func() { arrivals = append(arrivals, s.Now()) }}
	h.Connect(device.NewLink(s, 0, dst))
	s.At(0, func() {
		for i := 0; i < 5; i++ {
			h.Output(&packet.Packet{Dst: 2, Payload: 1440})
		}
	})
	s.Run()
	// 1500B at 1Gb/s = 12us per packet, back to back.
	for i := 1; i < len(arrivals); i++ {
		if gap := arrivals[i] - arrivals[i-1]; gap != 12*units.Microsecond {
			t.Fatalf("gap %d = %v, want 12us", i, gap)
		}
	}
}

type captureEndpoint struct {
	id packet.NodeID
	s  *sim.Simulator
	on func()
}

func (c *captureEndpoint) ID() packet.NodeID      { return c.id }
func (c *captureEndpoint) Receive(*packet.Packet) { c.on() }

func TestReceiverCreatedLazily(t *testing.T) {
	s := sim.New(1)
	a, b := loop(t, s)
	if b.receivers.n != 0 {
		t.Fatal("receivers should not exist before data")
	}
	a.StartFlow(7, 2, 10*units.Kilobyte, 0, cc.NewReno(), nil)
	s.RunUntil(10 * units.Millisecond)
	if b.receivers.n != 1 {
		t.Fatalf("receivers = %d, want 1", b.receivers.n)
	}
}

func TestMisdeliveredPacketPanics(t *testing.T) {
	s := sim.New(1)
	h := New(s, Config{ID: 5, Rate: units.GigabitPerSec})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Receive(&packet.Packet{Dst: 9})
}

func TestAckForUnknownFlowIgnored(t *testing.T) {
	s := sim.New(1)
	h := New(s, Config{ID: 5, Rate: units.GigabitPerSec})
	// Must not panic: stale ACK after sender cleanup.
	h.Receive(&packet.Packet{Dst: 5, FlowID: 999, Flags: packet.FlagACK})
}

func TestUnscheduledBudgetDefaultsToBDP(t *testing.T) {
	s := sim.New(1)
	h := New(s, Config{ID: 1, Rate: 10 * units.GigabitPerSec, BaseRTT: 80 * units.Microsecond})
	if h.cfg.UnscheduledBytes != 100*units.Kilobyte {
		t.Fatalf("unscheduled budget = %v, want 1 BDP (100KB)", h.cfg.UnscheduledBytes)
	}
}

func TestHostValidation(t *testing.T) {
	s := sim.New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero rate")
		}
	}()
	New(s, Config{ID: 1})
}

func TestBacklogReporting(t *testing.T) {
	s := sim.New(1)
	h := New(s, Config{ID: 1, Rate: units.GigabitPerSec})
	h.Connect(device.NewLink(s, 0, &captureEndpoint{id: 2, s: s, on: func() {}}))
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			h.Output(&packet.Packet{Dst: 2, Payload: 1440})
		}
		// One packet is in transmission; the rest queue.
		if h.Backlog() != 9 {
			t.Errorf("backlog = %d, want 9", h.Backlog())
		}
	})
	s.Run()
	if h.Backlog() != 0 {
		t.Fatalf("backlog after drain = %d", h.Backlog())
	}
}
