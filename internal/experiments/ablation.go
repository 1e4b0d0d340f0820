package experiments

import (
	"fmt"
	"io"

	"abm/internal/runner"
	"abm/internal/scenario"
	"abm/internal/units"
)

// ablationBlock is one titled axis of the ablation figure: labeled
// variants of the base cell.
type ablationBlock struct {
	title string
	jobs  []job
}

// Ablations probe the design choices DESIGN.md calls out, each on the
// Figure-6 style cell (web-search 40% + incast 30%, cubic) with ABM:
//
//   - the drain-rate estimator (scheduler share vs measured bytes),
//   - the congestion-detection factor (the paper's 0.9),
//   - the headroom reservation,
//   - the unscheduled alpha (the paper's 64),
//   - the n_p / mu refresh period (the paper's one RTT).
//
// The whole grid runs as one parallel plan, then renders one TSV block
// per axis.
func ablationBlocks(base scenario.Scenario) []ablationBlock {
	abm := cell(base, "ABM", 0.4, "cubic", 0.3)
	variant := func(label string, set func(*scenario.Scenario)) job {
		sc := abm.Clone()
		set(&sc)
		return job{label, sc}
	}

	measured := variant("measured", func(sc *scenario.Scenario) { sc.Switch.DrainRateMeasured = true })
	blocks := []ablationBlock{{"drain-rate estimator (ABM's mu/b source)",
		[]job{{"scheduler-share", abm}, measured}}}

	var factors []job
	for _, f := range []float64{0.5, 0.7, 0.9, 0.99} {
		factors = append(factors, variant(fmt.Sprintf("f=%.2f", f),
			func(sc *scenario.Scenario) { sc.Switch.CongestedFactor = f }))
	}
	blocks = append(blocks, ablationBlock{"congestion detection factor (queue congested above f*threshold)", factors})

	var headrooms []job
	for _, hr := range []float64{0, 1.0 / 16, 1.0 / 8, 1.0 / 4} {
		headrooms = append(headrooms, variant(fmt.Sprintf("headroom=%.3f", hr),
			func(sc *scenario.Scenario) { v := hr; sc.Buffer.HeadroomFrac = &v }))
	}
	headrooms[0].label = "headroom=0"
	blocks = append(blocks, ablationBlock{"headroom reservation (fraction of the chip buffer)", headrooms})

	var alphaUs []job
	for _, au := range []float64{0.5, 8, 64, 512} {
		alphaUs = append(alphaUs, variant(fmt.Sprintf("alphaU=%g", au),
			func(sc *scenario.Scenario) { sc.Buffer.AlphaUnscheduled = au }))
	}
	blocks = append(blocks, ablationBlock{"unscheduled alpha (the paper uses 64)", alphaUs})

	var intervals []job
	for _, mult := range []int{1, 4, 16} {
		intervals = append(intervals, variant(fmt.Sprintf("interval=%dxRTT", mult),
			func(sc *scenario.Scenario) {
				sc.Switch.StatsInterval = scenario.Duration(units.Time(mult) * 80 * units.Microsecond)
			}))
	}
	return append(blocks, ablationBlock{"stats update interval (n_p and mu refresh; the paper uses 1 RTT)", intervals})
}

func ablationJobs(base scenario.Scenario) []job {
	var jobs []job
	for _, b := range ablationBlocks(base) {
		jobs = append(jobs, b.jobs...)
	}
	return jobs
}

func ablationRender(w io.Writer, res []runner.Result) {
	i := 0
	for _, b := range ablationBlocks(scenario.Scenario{}) {
		fmt.Fprintf(w, "# Ablation: %s\n", b.title)
		fmt.Fprintln(w, "variant\tp99_incast\tp99_short\tp99_buffer_pct\tavg_tput_pct")
		for _, j := range b.jobs {
			s := res[i].Summary
			i++
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.1f\n",
				j.label, s.P99IncastSlowdown, s.P99ShortSlowdown,
				100*s.P99BufferFrac, 100*s.AvgThroughputFrac)
		}
	}
}
