package experiments

import (
	"fmt"

	"abm/internal/scenario"
	"abm/internal/units"
)

// Ablations probe the design choices DESIGN.md calls out, each on the
// Figure-6 style cell (web-search 40% + incast 30%, cubic) with ABM:
//
//   - the drain-rate estimator (scheduler share vs measured bytes),
//   - the congestion-detection factor (the paper's 0.9),
//   - the headroom reservation,
//   - the unscheduled alpha (the paper uses 64),
//   - the n_p / mu refresh period (the paper's one RTT).
//
// The whole grid runs as one plan; each axis renders as its own titled
// TSV block, one row per variant.
func ablationJobs(base scenario.Scenario) []job {
	abm := cell(base, "ABM", 0.4, "cubic", 0.3)
	var jobs []job
	var head string
	block := func(title string) {
		head = "# Ablation: " + title + "\nvariant\tp99_incast\tp99_short\tp99_buffer_pct\tavg_tput_pct\n"
	}
	variant := func(label string, set func(*scenario.Scenario)) {
		sc := abm.Clone()
		set(&sc)
		jobs = append(jobs, job{label: label, head: head, row: label, sc: sc})
		head = ""
	}

	block("drain-rate estimator (ABM's mu/b source)")
	variant("scheduler-share", func(*scenario.Scenario) {})
	variant("measured", func(sc *scenario.Scenario) { sc.Switch.DrainRateMeasured = true })

	block("congestion detection factor (queue congested above f*threshold)")
	for _, f := range []float64{0.5, 0.7, 0.9, 0.99} {
		variant(fmt.Sprintf("f=%.2f", f), func(sc *scenario.Scenario) { sc.Switch.CongestedFactor = f })
	}

	block("headroom reservation (fraction of the chip buffer)")
	for _, hr := range []float64{0, 1.0 / 16, 1.0 / 8, 1.0 / 4} {
		label := fmt.Sprintf("headroom=%.3f", hr)
		if hr == 0 {
			label = "headroom=0"
		}
		variant(label, func(sc *scenario.Scenario) { v := hr; sc.Buffer.HeadroomFrac = &v })
	}

	block("unscheduled alpha (the paper uses 64)")
	for _, au := range []float64{0.5, 8, 64, 512} {
		variant(fmt.Sprintf("alphaU=%g", au), func(sc *scenario.Scenario) { sc.Buffer.AlphaUnscheduled = au })
	}

	block("stats update interval (n_p and mu refresh; the paper uses 1 RTT)")
	for _, mult := range []int{1, 4, 16} {
		variant(fmt.Sprintf("interval=%dxRTT", mult), func(sc *scenario.Scenario) {
			sc.Switch.StatsInterval = scenario.Duration(units.Time(mult) * 80 * units.Microsecond)
		})
	}
	return jobs
}
