// Package device implements the shared-memory output-queued switch the
// paper models (§2, "Model"): ports with one queue per priority, a
// scheduler per port, and an MMU that runs the hierarchical admission
// scheme of Eq. 4 — a buffer-management threshold (Ψ) combined with an
// AQM verdict (Φ) — over a single shared packet buffer.
package device

import (
	"abm/internal/aqm"
	"abm/internal/packet"
	"abm/internal/units"
)

// queued wraps a packet with its enqueue timestamp, needed by
// sojourn-based AQMs (Codel) and for queueing-delay stats.
type queued struct {
	pkt   *packet.Packet
	enqAt units.Time
}

// Queue is one priority queue at one egress port: a FIFO of packets plus
// the bookkeeping the MMU needs (occupancy, last computed threshold,
// dequeue counters for drain-rate measurement). Queues live by value in
// their switch's contiguous array (Switch.queues); the fields every
// admission and dequeue touches come first so they share a cache line.
type Queue struct {
	items []queued
	head  int

	bytes units.ByteCount

	// bytesF mirrors bytes as float64, refreshed on every enqueue and
	// dequeue, so the MMU's congestion scan avoids per-queue int→float
	// conversions on the admission hot path.
	bytesF float64

	// lastThreshold is the most recent BM threshold computed for this
	// queue; the MMU uses it for congestion detection (q >= 0.9*T).
	lastThreshold units.ByteCount

	// congestedAtF caches CongestedFactor*lastThreshold, refreshed
	// whenever lastThreshold is, for the same reason as bytesF.
	congestedAtF float64

	// aqm is the queue's AQM policy and deqHook its dequeue hook, both
	// resolved once by newMMU; nil when the switch has no AQM (or the
	// policy no hook), which skips the stage outright.
	aqm     aqm.Policy
	deqHook aqm.DequeueHook

	Port int
	Prio int

	// MaxBytes is the occupancy high-water mark since creation.
	MaxBytes units.ByteCount

	// dequeuedInTick counts bytes dequeued since the last stats tick,
	// feeding the measured drain-rate estimator.
	dequeuedInTick units.ByteCount

	// DequeuedBytes counts all bytes ever dequeued (service received).
	DequeuedBytes units.ByteCount

	// Lifetime enqueue/dequeue/mark/trim counters, for the per-queue
	// telemetry summary (trace.WriteQueueCounters) and the switch's
	// model/ counters (admitted = enqueued).
	EnqueuedPkts  int64
	EnqueuedBytes units.ByteCount
	DequeuedPkts  int64
	MarkedPkts    int64
	TrimmedPkts   int64

	// FluidBytes counts payload bytes that traversed this queue in the
	// hybrid engine's fluid mode — invisible to the packet counters
	// above, charged by the controller at promotion. Queues that only
	// ever carried fluid traffic show up in the counters table through
	// this column alone.
	FluidBytes units.ByteCount

	// Drop counters by cause, for experiment reporting. DropsAQM counts
	// the AQM's verdicts at admission, DropsDequeue a sojourn AQM's
	// discards at the port scheduler.
	DropsThreshold int64
	DropsNoBuffer  int64
	DropsAQM       int64
	DropsAFD       int64
	DropsDequeue   int64
	// DropsUnscheduled counts dropped packets that carried the
	// first-RTT tag (any cause).
	DropsUnscheduled int64
}

// Len returns the number of queued packets.
func (q *Queue) Len() int { return len(q.items) - q.head }

// Bytes returns the queue occupancy in bytes.
func (q *Queue) Bytes() units.ByteCount { return q.bytes }

// LastThreshold returns the BM threshold from the most recent admission
// or stats tick.
func (q *Queue) LastThreshold() units.ByteCount { return q.lastThreshold }

// push appends a packet.
func (q *Queue) push(p *packet.Packet, now units.Time) {
	q.items = append(q.items, queued{pkt: p, enqAt: now})
	q.bytes += p.Size()
	q.bytesF = float64(q.bytes)
	q.EnqueuedPkts++
	q.EnqueuedBytes += p.Size()
	if q.bytes > q.MaxBytes {
		q.MaxBytes = q.bytes
	}
}

// pop removes and returns the head packet and its enqueue time.
func (q *Queue) pop() (pkt *packet.Packet, enqAt units.Time, ok bool) {
	if q.Len() == 0 {
		return nil, 0, false
	}
	item := q.items[q.head]
	q.items[q.head] = queued{}
	q.head++
	size := item.pkt.Size()
	q.bytes -= size
	q.bytesF = float64(q.bytes)
	q.dequeuedInTick += size
	q.DequeuedBytes += size
	q.DequeuedPkts++
	// Compact once the dead prefix dominates, keeping amortized O(1).
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return item.pkt, item.enqAt, true
}

// TotalDrops returns the sum of all drop counters.
func (q *Queue) TotalDrops() int64 {
	return q.DropsThreshold + q.DropsNoBuffer + q.DropsAQM + q.DropsAFD + q.DropsDequeue
}
