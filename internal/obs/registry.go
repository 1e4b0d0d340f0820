package obs

// Ctr identifies one counter: its export name and its slot in a Tally.
// The registry holds names, not values; each value is kept by the
// component that owns it and pulled through its Source.
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
	CtrDropNoRoute     // packets a switch discarded for want of a next hop
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
	CtrMailboxBatches // non-empty (source shard, destination shard) buffer drains
	CtrMailboxEvents  // events merged across shard boundaries
	CtrTraceDropped   // events discarded by the per-shard buffer cap

	// engine/: event calendar and packet free list self-observation
	// (see eventq.Stats, packet.Pool). Each shard has its own calendar
	// and free list, so the split depends on the partition.
	CtrCalendarHeap    // pushes into the heap (timers, planned arrivals, partial segments' serialization ends)
	CtrCalendarLine    // pushes appended to a delay line (link deliveries, full-size and header-only serialization ends)
	CtrTimerStaleWakes // sim.Timer wake-ups that fired before their deadline and rescheduled
	CtrPktPoolAllocs   // packets the free lists allocated: each shard's high-water mark of live packets

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
	"model/drops_noroute",
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
	"engine/calendar_heap",
	"engine/calendar_line",
	"engine/timer_stale_wakes",
	"engine/pkt_pool_allocs",
}

// Name returns the counter's export name ("model/..." or "engine/...").
func (c Ctr) Name() string { return ctrNames[c] }

// Tally is one set of counter values, indexed by Ctr.
type Tally [NumCtrs]int64

// Source is a component that keeps its own counts as plain integer
// fields. AddCounts adds them to t under their registry IDs; it runs
// only when a reader asks for totals, at a point where the owning shard
// is quiescent (after the run, or at a snapshot tick).
type Source interface {
	AddCounts(t *Tally)
}
