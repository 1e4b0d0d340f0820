// Package burstlab measures burst tolerance in simulation: the
// micro-benchmark behind the paper's Figure 5, run on the packet
// simulator instead of the fluid model. A single shared-memory switch is
// driven to a configurable steady state (congested background ports and
// queues), then a burst arrives at a fresh queue at rate r; the measured
// burst tolerance is the number of burst bytes admitted before the
// first burst-packet drop — Appendix A.8's definition made operational.
package burstlab

import (
	"fmt"

	"abm/internal/bm"
	"abm/internal/device"
	"abm/internal/packet"
	"abm/internal/sim"
	"abm/internal/units"
)

// Config describes one burst-tolerance measurement.
type Config struct {
	Seed int64

	PortRate   units.Rate      // b; defaults to 10 Gb/s
	Buffer     units.ByteCount // shared pool; defaults to 5 MB
	Headroom   units.ByteCount // reserved pool for unscheduled packets
	Alpha      float64         // alpha for all priorities; defaults to 0.5
	AlphaBurst float64         // alpha for unscheduled packets; defaults to 64

	// CongestedPorts is the number of background ports with one
	// saturated queue each (Figure 5a/5c axis).
	CongestedPorts int
	// QueuesPerPort is the number of saturated queues sharing the
	// burst's port, including the burst queue (Figure 5b/5d axis).
	QueuesPerPort int

	// BurstRate is the arrival rate r of the burst.
	BurstRate units.Rate
	// Unscheduled tags burst packets with the first-RTT tag (§3.3). The
	// paper's ABM measurements assume it; DT ignores the tag.
	Unscheduled bool

	// BM constructs the policy under test.
	BM func() bm.Policy

	// StatsInterval is the MMU refresh period; defaults to 80us (one
	// fabric RTT). Zero keeps the default; negative selects instant mode.
	StatsInterval units.Time

	// PacketPayload defaults to 1440 bytes.
	PacketPayload units.ByteCount
}

func (c *Config) fillDefaults() {
	if c.PortRate <= 0 {
		c.PortRate = 10 * units.GigabitPerSec
	}
	if c.Buffer <= 0 {
		c.Buffer = 5 * units.Megabyte
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.5
	}
	if c.AlphaBurst <= 0 {
		c.AlphaBurst = 64
	}
	if c.QueuesPerPort < 1 {
		c.QueuesPerPort = 1
	}
	if c.CongestedPorts < 0 {
		c.CongestedPorts = 0
	}
	if c.BurstRate <= 0 {
		panic("burstlab: burst rate required")
	}
	if c.BM == nil {
		c.BM = func() bm.Policy { return bm.DT{} }
	}
	if c.StatsInterval == 0 {
		c.StatsInterval = 80 * units.Microsecond
	}
	if c.StatsInterval < 0 {
		c.StatsInterval = 0 // instant mode
	}
	if c.PacketPayload <= 0 {
		c.PacketPayload = 1440
	}
}

// Result is one measurement.
type Result struct {
	// Tolerance is the burst bytes admitted before the first burst drop.
	Tolerance units.ByteCount
	// Dropped reports whether the burst experienced any drop; when
	// false, Tolerance is the full injected burst (the buffer absorbed
	// everything offered).
	Dropped bool
	// SteadyOccupancy is the shared-pool occupancy when the burst began.
	SteadyOccupancy units.ByteCount
}

// sink retires packets, returning them to the simulator's free list.
type sink struct {
	id  packet.NodeID
	sim *sim.Simulator
}

func (s *sink) ID() packet.NodeID          { return s.id }
func (s *sink) Receive(pkt *packet.Packet) { s.sim.FreePacket(pkt) }

// Measure runs one burst-tolerance experiment.
func Measure(cfg Config) Result {
	cfg.fillDefaults()
	s := sim.New(cfg.Seed)

	// Port 0 hosts the burst queue (plus QueuesPerPort-1 saturated
	// port-mates); ports 1..CongestedPorts carry background queues.
	numPorts := cfg.CongestedPorts + 1
	prios := 2 // prio 0: background, prio 1: burst
	if cfg.QueuesPerPort > 1 {
		prios = cfg.QueuesPerPort + 1 // port-mates each in their own queue
	}

	alphas := make([]float64, prios)
	for i := range alphas {
		alphas[i] = cfg.Alpha
	}
	sw := device.NewSwitch(s, device.SwitchConfig{
		ID:            1,
		NumPorts:      numPorts,
		QueuesPerPort: prios,
		PortRate:      cfg.PortRate,
		MSS:           cfg.PacketPayload,
		MMU: device.MMUConfig{
			BufferSize:       cfg.Buffer,
			Headroom:         cfg.Headroom,
			Alphas:           alphas,
			AlphaUnscheduled: cfg.AlphaBurst,
			BM:               cfg.BM(),
			StatsInterval:    cfg.StatsInterval,
		},
	})
	// Route by packet priority: all traffic to its designated port via
	// the Dst field (port index).
	sw.SetRouter(func(_ *device.Switch, pkt *packet.Packet) int { return int(pkt.Dst) })
	for i := 0; i < numPorts; i++ {
		sw.ConnectPort(i, device.NewLink(s, units.Microsecond, &sink{id: packet.NodeID(100 + i), sim: s}))
	}

	payload := cfg.PacketPayload
	wire := payload + packet.HeaderBytes
	// Overdrive the background queues at 2x line rate so they sit pinned
	// at their thresholds (the steady state of Eq. 6).
	interArrival := cfg.PortRate.TxTime(wire) / 2

	// Background generators: saturate one prio-0 queue on each congested
	// port, and the burst port's extra queues (prios 1..QueuesPerPort-1).
	var flowID uint64
	saturate := func(port int, prio uint8) {
		flowID++
		id := flowID
		var inject func()
		inject = func() {
			pkt := s.NewPacket()
			pkt.FlowID, pkt.Dst, pkt.Prio, pkt.Payload = id, packet.NodeID(port), prio, payload
			sw.Receive(pkt)
			s.After(interArrival, inject)
		}
		inject()
	}
	s.At(0, func() {
		for p := 1; p <= cfg.CongestedPorts; p++ {
			saturate(p, 0)
		}
		for q := 1; q < cfg.QueuesPerPort; q++ {
			saturate(0, uint8(q))
		}
	})

	// Warm up to steady state: several stats intervals plus drain time.
	warmup := 20 * units.MaxTime(cfg.StatsInterval, 80*units.Microsecond)
	s.RunUntil(warmup)

	res := Result{SteadyOccupancy: sw.MMU().Used()}

	// Inject the burst at rate r into the burst queue until the first
	// drop (or a 2x-buffer cap).
	burstPrio := uint8(prios - 1)
	burstGap := cfg.BurstRate.TxTime(wire)
	cap := 2 * cfg.Buffer
	burstQueue := sw.Port(0).Queue(int(burstPrio))
	dropsBefore := burstQueue.TotalDrops()

	var admitted, injected units.ByteCount
	flowID++
	burstID := flowID
	var injectBurst func()
	injectBurst = func() {
		if burstQueue.TotalDrops() > dropsBefore {
			res.Dropped = true
			s.Halt()
			return
		}
		if injected >= cap {
			s.Halt()
			return
		}
		pkt := s.NewPacket()
		pkt.FlowID, pkt.Dst, pkt.Prio, pkt.Payload = burstID, 0, burstPrio, payload
		if cfg.Unscheduled {
			pkt.Set(packet.FlagUnscheduled)
		}
		injected += wire
		sw.Receive(pkt)
		if burstQueue.TotalDrops() > dropsBefore {
			res.Dropped = true
			s.Halt()
			return
		}
		admitted += wire
		s.After(burstGap, injectBurst)
	}
	s.At(s.Now(), func() { injectBurst() })
	s.Run()
	sw.Stop()

	res.Tolerance = admitted
	if res.Tolerance > cfg.Buffer+cfg.Headroom {
		res.Tolerance = cfg.Buffer + cfg.Headroom
	}
	return res
}

// String renders the result.
func (r Result) String() string {
	return fmt.Sprintf("tolerance=%v dropped=%v steady=%v", r.Tolerance, r.Dropped, r.SteadyOccupancy)
}
