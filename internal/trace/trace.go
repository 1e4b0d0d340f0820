// Package trace renders a finished run in TSV form: per-flow completion
// records and per-queue lifetime counters. The cmd/abmsim binary
// exposes both as flags; they are how a user inspects what happened
// inside an experiment beyond the headline percentiles.
package trace

import (
	"fmt"
	"io"
	"sort"

	"abm/internal/metrics"
	"abm/internal/topo"
)

// WriteFlows dumps one TSV row per recorded flow, sorted by start time.
func WriteFlows(w io.Writer, flows []metrics.FlowRecord) error {
	if _, err := fmt.Fprintln(w, "id\tclass\tprio\tsize_bytes\tstart_us\tfct_us\tideal_us\tslowdown\tfinished"); err != nil {
		return err
	}
	sorted := append([]metrics.FlowRecord(nil), flows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for _, f := range sorted {
		fct, slow := 0.0, 0.0
		if f.Finished {
			fct = f.FCT().Microseconds()
			slow = f.Slowdown()
		}
		if _, err := fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%.3f\t%.3f\t%.3f\t%.2f\t%v\n",
			f.ID, f.Class, f.Prio, int64(f.Size),
			f.Start.Microseconds(), fct, f.Ideal.Microseconds(), slow, f.Finished); err != nil {
			return err
		}
	}
	return nil
}

// WriteQueueCounters dumps one TSV row per port-priority queue across
// the fabric (leaves first, in topo.Switches order): lifetime enqueue/
// dequeue totals, drops by cause, ECN marks, the occupancy high-water
// mark, the queue's last BM threshold, and the payload bytes the hybrid
// engine carried through the queue in fluid mode — so queues whose
// traffic was entirely fluid (zero packet counters) are still visibly
// active in the table. These counters are always maintained by the
// device layer, so the summary is available whether or not event
// tracing was enabled.
func WriteQueueCounters(w io.Writer, n *topo.Network) error {
	if _, err := fmt.Fprintln(w, "node\tport\tprio\tenq_pkts\tenq_bytes\tdeq_pkts\tdeq_bytes\t"+
		"drops_threshold\tdrops_nobuffer\tdrops_aqm\tdrops_afd\tdrops_unscheduled\t"+
		"marked_pkts\tmax_bytes\tlast_threshold\tfluid_bytes"); err != nil {
		return err
	}
	for _, sw := range n.Switches() {
		name := n.NodeName(sw.ID())
		for p := 0; p < sw.NumPorts(); p++ {
			for qi := 0; qi < sw.Prios(); qi++ {
				q := sw.Port(p).Queue(qi)
				if _, err := fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
					name, p, qi,
					q.EnqueuedPkts, int64(q.EnqueuedBytes), q.DequeuedPkts, int64(q.DequeuedBytes),
					q.DropsThreshold, q.DropsNoBuffer, q.DropsAQM+q.DropsDequeue, q.DropsAFD, q.DropsUnscheduled,
					q.MarkedPkts, int64(q.MaxBytes), int64(q.LastThreshold()), int64(q.FluidBytes)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
