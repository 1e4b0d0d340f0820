// Package metrics collects the quantities the paper reports: flow
// completion time slowdowns (actual FCT over ideal FCT, §4.1), their
// percentiles, average throughput of long flows, and tail buffer
// occupancy sampled from the switches.
package metrics

import (
	"fmt"
	"sort"

	"abm/internal/units"
)

// FlowClass labels which workload a flow belongs to.
type FlowClass uint8

// Flow classes.
const (
	ClassWebSearch FlowClass = iota
	ClassIncast
	ClassOther
	ClassLong // steady long-flow permutation workload
)

// String renders the class.
func (c FlowClass) String() string {
	switch c {
	case ClassWebSearch:
		return "websearch"
	case ClassIncast:
		return "incast"
	case ClassLong:
		return "long"
	default:
		return "other"
	}
}

// FlowRecord is one completed (or abandoned) flow.
type FlowRecord struct {
	ID       uint64
	Class    FlowClass
	Prio     uint8
	Size     units.ByteCount
	Start    units.Time
	End      units.Time
	Ideal    units.Time
	Finished bool
}

// FCT returns the measured completion time.
func (r FlowRecord) FCT() units.Time { return r.End - r.Start }

// Slowdown returns FCT divided by the ideal FCT.
func (r FlowRecord) Slowdown() float64 {
	if r.Ideal <= 0 {
		return 0
	}
	return float64(r.FCT()) / float64(r.Ideal)
}

// Throughput returns the flow's achieved goodput.
func (r FlowRecord) Throughput() units.Rate {
	return units.RateOf(r.Size, r.FCT())
}

// Collector accumulates flow records and buffer-occupancy samples.
type Collector struct {
	Flows []FlowRecord

	// BufferSamples are per-sample total occupancy fractions in [0,1].
	BufferSamples []float64
}

// AddFlow appends a flow's row. The workload stream adds it when the
// flow starts; the flow's completion later fills in End and Finished.
func (c *Collector) AddFlow(r FlowRecord) { c.Flows = append(c.Flows, r) }

// SampleBuffer records one occupancy fraction observation.
func (c *Collector) SampleBuffer(frac float64) {
	c.BufferSamples = append(c.BufferSamples, frac)
}

// Filter returns the slowdowns of finished flows matching the predicate.
func (c *Collector) Filter(pred func(FlowRecord) bool) []float64 {
	var out []float64
	for _, f := range c.Flows {
		if f.Finished && (pred == nil || pred(f)) {
			out = append(out, f.Slowdown())
		}
	}
	return out
}

// ShortFlowCut is the paper's short-flow size boundary (100 KB).
const ShortFlowCut = 100 * units.Kilobyte

// ByClass selects finished flows of one class.
func ByClass(class FlowClass) func(FlowRecord) bool {
	return func(r FlowRecord) bool { return r.Class == class }
}

// ShortOf selects finished short flows of one class.
func ShortOf(class FlowClass) func(FlowRecord) bool {
	return func(r FlowRecord) bool { return r.Class == class && r.Size <= ShortFlowCut }
}

// LongOf selects finished long flows of one class.
func LongOf(class FlowClass) func(FlowRecord) bool {
	return func(r FlowRecord) bool { return r.Class == class && r.Size > ShortFlowCut }
}

// ByPrio selects finished flows of one priority.
func ByPrio(prio uint8) func(FlowRecord) bool {
	return func(r FlowRecord) bool { return r.Prio == prio }
}

// Percentile returns the p-th percentile (0..100) of vals using
// nearest-rank on a sorted copy. It returns 0 for an empty slice.
func Percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of range", p))
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return nearestRank(sorted, p)
}

// nearestRank returns the p-th percentile (0..100) of sorted, which
// must be in ascending order, or 0 if it is empty.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p == 0 {
		return sorted[0]
	}
	rank := int(float64(p/100*float64(len(sorted)))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// AvgThroughputFrac returns the mean goodput of finished long flows of
// the given class as a fraction of the line rate — the paper's
// "average throughput (%)" panel.
func (c *Collector) AvgThroughputFrac(class FlowClass, lineRate units.Rate) float64 {
	var fracs []float64
	for _, f := range c.Flows {
		if !f.Finished || f.Class != class || f.Size <= ShortFlowCut {
			continue
		}
		fracs = append(fracs, float64(f.Throughput())/float64(lineRate))
	}
	return Mean(fracs)
}

// FinishedCount returns how many recorded flows finished.
func (c *Collector) FinishedCount() int {
	n := 0
	for _, f := range c.Flows {
		if f.Finished {
			n++
		}
	}
	return n
}

// Summary holds the headline numbers for one experiment cell. The JSON
// tags define the schema of the runner's per-job result records.
type Summary struct {
	P99IncastSlowdown float64 `json:"p99_incast_slowdown"`
	P99ShortSlowdown  float64 `json:"p99_short_slowdown"`  // web-search short flows
	P999ShortSlowdown float64 `json:"p999_short_slowdown"` // web-search short flows
	// P999AllShortSlowdown covers short flows of every class (web-search
	// and incast) — the population §4.4 reports.
	P999AllShortSlowdown float64 `json:"p999_all_short_slowdown"`
	MedianLongSlowdown   float64 `json:"median_long_slowdown"`
	P99BufferFrac        float64 `json:"p99_buffer_frac"`
	AvgThroughputFrac    float64 `json:"avg_tput_frac"`
	Flows                int     `json:"flows"`
	Unfinished           int     `json:"unfinished"`
}

// Summarize computes the standard panel set. Each population is its
// own fresh slice, so it is sorted once in place and every percentile
// of it read from that sort; the values equal Percentile's.
func (c *Collector) Summarize(lineRate units.Rate) Summary {
	short := c.Filter(func(r FlowRecord) bool {
		return r.Class == ClassWebSearch && r.Size <= ShortFlowCut
	})
	allShort := c.Filter(func(r FlowRecord) bool { return r.Size <= ShortFlowCut })
	long := c.Filter(LongOf(ClassWebSearch))
	incast := c.Filter(ByClass(ClassIncast))
	buffer := append([]float64(nil), c.BufferSamples...)
	for _, vals := range [][]float64{short, allShort, long, incast, buffer} {
		sort.Float64s(vals)
	}
	return Summary{
		P99IncastSlowdown:    nearestRank(incast, 99),
		P99ShortSlowdown:     nearestRank(short, 99),
		P999ShortSlowdown:    nearestRank(short, 99.9),
		P999AllShortSlowdown: nearestRank(allShort, 99.9),
		MedianLongSlowdown:   nearestRank(long, 50),
		P99BufferFrac:        nearestRank(buffer, 99),
		AvgThroughputFrac:    c.AvgThroughputFrac(ClassWebSearch, lineRate),
		Flows:                len(c.Flows),
		Unfinished:           len(c.Flows) - c.FinishedCount(),
	}
}
