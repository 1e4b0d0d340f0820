package bm

import (
	"math/rand"

	"abm/internal/units"
)

// IB approximates Cisco's Intelligent Buffer (the paper's fourth
// baseline, §4.1): Dynamic Thresholds at the device level combined with
// Approximate Fair Dropping (AFD) and an elephant trap at the queue
// level. Flows sending more than ElephantBytes within a measurement
// window are elephants; their packets are dropped with probability
// 1 - fairShare/arrivalRate so that each elephant converges to the fair
// share, steered by a control loop that tracks a target queue length.
// Mice (non-elephant flows) bypass AFD entirely and may use the
// headroom pool, mirroring the priority treatment Cisco gives bursts.
//
// The real IB is proprietary; this reconstruction follows the public AFD
// description and Cisco's white paper [4], the same approximation the
// paper's ns-3 artifact makes.
type IB struct {
	// Alpha for the underlying DT stage is taken from Ctx (per priority).

	// ElephantBytes is the per-window byte count above which a flow is
	// trapped as an elephant. Defaults to 100 KB.
	ElephantBytes units.ByteCount
	// TargetQueue is the per-queue occupancy AFD steers toward. Defaults
	// to 100 KB (about one BDP at 10G/80us).
	TargetQueue units.ByteCount
	// Window is the measurement window; per-flow counters reset every
	// window. Defaults to 1 ms.
	Window units.Time
	// Gain scales the fair-share adjustment per window. Defaults to 0.25.
	Gain float64
	// MaxDropProb caps the per-packet AFD drop probability. The textbook
	// 1 - fair/arrival law is meant for non-reactive flows; applied
	// per-packet to TCP it collapses elephants entirely, so the cap
	// keeps drops at a level loss-based senders respond to. Defaults to
	// 0.05.
	MaxDropProb float64

	flows     map[uint64]*ibFlow
	fairBytes float64 // current fair share, bytes per window
	stats     Stats
	lastTick  units.Time
}

type ibFlow struct {
	winBytes  units.ByteCount // bytes arrived in the current window
	prevBytes units.ByteCount // bytes in the previous (complete) window
	lastSeen  units.Time
}

// NewIB returns an IB policy with defaults filled in.
func NewIB() *IB {
	ib := &IB{}
	ib.init()
	return ib
}

func (ib *IB) init() {
	if ib.ElephantBytes <= 0 {
		ib.ElephantBytes = 100 * units.Kilobyte
	}
	if ib.TargetQueue <= 0 {
		ib.TargetQueue = 100 * units.Kilobyte
	}
	if ib.Window <= 0 {
		ib.Window = units.Millisecond
	}
	if ib.Gain <= 0 {
		ib.Gain = 0.25
	}
	if ib.MaxDropProb <= 0 {
		ib.MaxDropProb = 0.05
	}
	if ib.flows == nil {
		ib.flows = make(map[uint64]*ibFlow)
		ib.fairBytes = float64(ib.ElephantBytes)
	}
}

// Name implements Policy.
func (ib *IB) Name() string { return "IB" }

// Bind implements Binder.
func (ib *IB) Bind(s Stats) { ib.stats = s }

// Threshold implements Policy: the DT stage (Eq. 5).
func (ib *IB) Threshold(ctx *Ctx) units.ByteCount {
	remaining := float64(ctx.Total - ctx.Occupied)
	return clampBytes(ctx.Alpha * remaining)
}

// ShouldDrop implements Dropper: AFD for elephants, active only while
// the target queue sits above its reference occupancy (AFD's goal is to
// hold the queue at the target, not to police an uncongested port).
func (ib *IB) ShouldDrop(ctx *Ctx, rng *rand.Rand) bool {
	ib.init()
	if ctx.QueueLen <= ib.TargetQueue {
		return false
	}
	fl := ib.flows[ctx.FlowID]
	if fl == nil {
		return false // first packet of a window: a mouse until proven otherwise
	}
	arrived := fl.prevBytes
	if fl.winBytes > arrived {
		arrived = fl.winBytes
	}
	if arrived < ib.ElephantBytes {
		return false // mice pass
	}
	if ib.fairBytes >= float64(arrived) {
		return false
	}
	p := 1 - ib.fairBytes/float64(arrived)
	if p > ib.MaxDropProb {
		p = ib.MaxDropProb
	}
	return rng.Float64() < p
}

// OnAdmit implements FlowAware.
func (ib *IB) OnAdmit(ctx *Ctx) {
	ib.init()
	fl := ib.flows[ctx.FlowID]
	if fl == nil {
		fl = &ibFlow{}
		ib.flows[ctx.FlowID] = fl
	}
	fl.winBytes += ctx.PacketSize
	fl.lastSeen = ctx.Now
}

// OnDrop implements FlowAware: AFD counts offered load, including drops,
// so the drop probability reflects the flow's arrival rate.
func (ib *IB) OnDrop(ctx *Ctx) {
	ib.init()
	fl := ib.flows[ctx.FlowID]
	if fl == nil {
		fl = &ibFlow{}
		ib.flows[ctx.FlowID] = fl
	}
	fl.winBytes += ctx.PacketSize
	fl.lastSeen = ctx.Now
}

// UseHeadroom implements HeadroomEligible: mice and unscheduled packets
// may be admitted from headroom when the shared pool rejects them.
func (ib *IB) UseHeadroom(ctx *Ctx) bool {
	ib.init()
	if ctx.Unscheduled {
		return true
	}
	fl := ib.flows[ctx.FlowID]
	return fl == nil || (fl.prevBytes < ib.ElephantBytes && fl.winBytes < ib.ElephantBytes)
}

// Tick implements Ticker: closes measurement windows and adapts the fair
// share toward the target queue occupancy.
func (ib *IB) Tick(now units.Time) {
	ib.init()
	if now-ib.lastTick < ib.Window {
		return
	}
	ib.lastTick = now

	// Control law: grow the fair share when backlogged queues sit below
	// target, shrink when above. The signal is the mean occupancy of
	// backlogged queues — the max would let one transient incast spike
	// strangle every elephant in the device.
	if ib.stats != nil {
		var sum units.ByteCount
		backlogged := 0
		for port := 0; port < ib.stats.Ports(); port++ {
			for prio := 0; prio < ib.stats.Prios(); prio++ {
				if q := ib.stats.QueueLen(port, prio); q > 0 {
					sum += q
					backlogged++
				}
			}
		}
		avgQ := units.ByteCount(0)
		if backlogged > 0 {
			avgQ = sum / units.ByteCount(backlogged)
		}
		err := float64(ib.TargetQueue-avgQ) / float64(ib.TargetQueue)
		if err > 1 {
			err = 1
		}
		if err < -1 {
			err = -1
		}
		ib.fairBytes *= 1 + float64(ib.Gain*err)
		// Anchor the fair share to the per-window port capacity: an
		// elephant alone on a port deserves close to the full rate, and
		// the share never drops below a small fraction of it.
		capacity := float64(ib.stats.PortRate().BytesOver(ib.Window))
		if lo := capacity / 16; ib.fairBytes < lo {
			ib.fairBytes = lo
		}
		if ib.fairBytes > capacity {
			ib.fairBytes = capacity
		}
	}

	for id, fl := range ib.flows {
		if now-fl.lastSeen > 4*ib.Window {
			delete(ib.flows, id)
			continue
		}
		fl.prevBytes = fl.winBytes
		fl.winBytes = 0
	}
}

// FairShare reports the current AFD fair share in bytes per window.
func (ib *IB) FairShare() units.ByteCount {
	ib.init()
	return units.ByteCount(ib.fairBytes)
}
