package obs

// Ctr identifies one counter in the registry. Counters have fixed IDs
// resolved to *Counter handles at component setup, so the hot path
// performs plain integer increments — no map lookups, no atomics (each
// shard owns its Sink), no name hashing.
type Ctr uint8

// Counter IDs. The model/ block is a pure function of the simulated
// model and therefore shard-count-invariant; the engine/ block
// describes the run itself (wall clocks, batch sizes, calendar traffic
// per shard) and is not.
const (
	// model/: packet lifecycle.
	CtrDataSent     Ctr = iota // data packets handed to a host NIC (incl. retransmits)
	CtrRetransSent             // the retransmitted subset of CtrDataSent
	CtrAckSent                 // ACK packets handed to a host NIC
	CtrDataConsumed            // data packets consumed by a receiver
	CtrAckRetired              // ACK packets retired at a sender host

	// model/: MMU admission.
	CtrAdmittedPkts
	CtrAdmittedBytes
	CtrDropThreshold
	CtrDropNoBuffer
	CtrDropAQM
	CtrDropAFD
	CtrDropDequeue     // sojourn-AQM discards at the port scheduler
	CtrDropUnscheduled // dropped packets carrying the first-RTT tag (any cause)
	CtrECNMarked
	CtrTrimmed

	// model/: transport.
	CtrRTOFired
	CtrCwndCuts
	CtrFastRetrans

	// model/: hybrid fluid/packet engine.
	CtrHybridDemotions  // flow transitions packet -> fluid
	CtrHybridPromotions // flow transitions fluid -> packet
	CtrHybridEpochs     // integration epochs executed
	CtrHybridFluidBytes // bytes delivered in fluid mode

	// engine/: parallel run. Wall-clock-dependent; excluded from the
	// shard-invariance guarantee.
	CtrWindows        // lookahead windows executed
	CtrBarriers       // coordinator barriers (mailbox flushes)
	CtrBarrierWaitNs  // coordinator wall ns blocked on shard workers
	CtrMailboxBatches // non-empty mailbox drains
	CtrMailboxEvents  // events merged across shard boundaries
	CtrTraceDropped   // events discarded by the per-shard buffer cap

	// engine/: event calendar self-observation (see eventq.Stats). Each
	// shard has its own calendar, so the split depends on the partition.
	CtrCalendarNear    // pushes into the current-bucket heap
	CtrCalendarWheel   // pushes into the wheel (the O(1) path)
	CtrCalendarFar     // pushes beyond the wheel's horizon; ~all means serialization or timer delays exceed it
	CtrCalendarLine    // pushes appended to a delay line (link deliveries)
	CtrCalendarDrained // wheel buckets poured into the near heap
	CtrTimerStaleWakes // sim.Timer wake-ups that fired before their deadline and rescheduled

	NumCtrs
)

var ctrNames = [NumCtrs]string{
	"model/data_pkts_sent",
	"model/retrans_pkts_sent",
	"model/ack_pkts_sent",
	"model/data_pkts_consumed",
	"model/ack_pkts_retired",
	"model/admitted_pkts",
	"model/admitted_bytes",
	"model/drops_threshold",
	"model/drops_nobuffer",
	"model/drops_aqm",
	"model/drops_afd",
	"model/drops_dequeue",
	"model/drops_unscheduled",
	"model/ecn_marked",
	"model/trimmed_pkts",
	"model/rto_fired",
	"model/cwnd_cuts",
	"model/fast_retrans",
	"model/hybrid_demotions",
	"model/hybrid_promotions",
	"model/hybrid_epochs",
	"model/hybrid_fluid_bytes",
	"engine/windows",
	"engine/barriers",
	"engine/barrier_wait_ns",
	"engine/mailbox_batches",
	"engine/mailbox_events",
	"engine/trace_events_dropped",
	"engine/calendar_near",
	"engine/calendar_wheel",
	"engine/calendar_far",
	"engine/calendar_line",
	"engine/calendar_drained",
	"engine/timer_stale_wakes",
}

// Name returns the counter's export name ("model/..." or "engine/...").
func (c Ctr) Name() string { return ctrNames[c] }

// Counter is one registered counter. The nil receiver is the disabled
// instrument: Inc and Add on nil are single-branch no-ops that inline,
// so uninstrumented runs pay nothing.
type Counter struct {
	n int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n++
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.n += n
	}
}

// Get returns the current value (0 on nil).
func (c *Counter) Get() int64 {
	if c == nil {
		return 0
	}
	return c.n
}
