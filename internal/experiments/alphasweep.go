package experiments

import (
	"fmt"

	"abm/internal/scenario"
)

// alphaPresets are the vendor DT alpha defaults §2.3 cites.
var alphaPresets = []struct {
	label string
	alpha float64
}{
	{"0.5 (paper)", 0.5},
	{"1 (Arista)", 1},
	{"8 (Yahoo)", 8},
	{"14 (Cisco)", 14},
}

// The alphasweep figure probes the §2.3 operator question: vendors ship
// very different DT alphas (Arista 1, Yahoo 8, Cisco 14) — how
// sensitive is each scheme to the choice? DT's behaviour swings wildly
// with alpha (high alpha ≈ complete sharing, low alpha ≈ partitioning)
// while ABM's bounds (Theorems 1-2) keep it stable; this is the "ABM
// teaches essential lessons on how to configure alpha" argument (§3.4)
// made measurable.
func alphaSweepJobs(base scenario.Scenario) []job {
	var jobs []job
	for _, p := range alphaPresets {
		for _, bmName := range []string{"DT", "ABM"} {
			sc := cell(base, bmName, 0.4, "cubic", 0.3)
			sc.Buffer.Alphas = []float64{p.alpha} // one alpha for every queue
			jobs = append(jobs, job{label: fmt.Sprintf("alpha=%g,bm=%s", p.alpha, bmName),
				row: p.label + "\t" + bmName, sc: sc})
		}
	}
	return titled("# Alpha sensitivity: DT vs ABM across vendor alpha presets (load 40%, incast 30%)\n"+
		"alpha\tbm\tp99_incast\tp99_short\tp99_buffer_pct\tavg_tput_pct\n", jobs)
}
