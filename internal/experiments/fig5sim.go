package experiments

import (
	"fmt"
	"strings"

	"abm/internal/bm"
	"abm/internal/burstlab"
	"abm/internal/runner"
	"abm/internal/scenario"
	"abm/internal/units"
)

// burstProbe is one fig5sim burst-tolerance measurement point; it is
// also the job's config echo in its record.
type burstProbe struct {
	Scheme  string `json:"scheme"`
	Ports   int    `json:"ports"`
	Queues  int    `json:"queues"`
	RateX10 int    `json:"rate_x10g"`
}

// measure runs the probe's burst-lab measurement; the tolerance rides
// in the record as Extra["tolerance_mb"].
func (p burstProbe) measure() runner.Result {
	cfg := burstlab.Config{
		Seed:           1,
		CongestedPorts: p.Ports,
		QueuesPerPort:  p.Queues,
		BurstRate:      units.Rate(p.RateX10) * 10 * units.GigabitPerSec,
	}
	if p.Scheme == "ABM" {
		cfg.BM = func() bm.Policy { return bm.ABM{} }
		cfg.Unscheduled = true
		cfg.Headroom = 512 * units.Kilobyte
		cfg.Buffer = 5*units.Megabyte - cfg.Headroom
	} else {
		cfg.BM = func() bm.Policy { return bm.DT{} }
	}
	tol := burstlab.Measure(cfg).Tolerance
	return runner.Result{Extra: map[string]float64{"tolerance_mb": mb(tol)}}
}

// fig5simJobs regenerates Figure 5's burst-tolerance surfaces by
// measuring them on the packet simulator (package burstlab) instead of
// the fluid model — a cross-check that the analytic shapes of Fig5
// survive packetization, scheduling, and periodic statistics updates.
// The burst lab builds no fabric, so its cells are probes, not
// scenarios, and ignore the base. Each row is a DT probe then an ABM
// probe.
func fig5simJobs(scenario.Scenario) []job {
	var jobs []job
	var head string
	probe := func(row string, ports, queues, rateX10 int) {
		for _, scheme := range []string{"DT", "ABM"} {
			jobs = append(jobs, job{label: fmt.Sprintf("%s,ports=%d,queues=%d,rate=%dx", scheme, ports, queues, rateX10),
				head: head, row: row, probe: &burstProbe{scheme, ports, queues, rateX10}})
			head = ""
		}
	}
	head = "# Figure 5 (simulated): burst tolerance (MB) vs burst rate and congested ports\nrate_x10G\tports\tDT_MB\tABM_MB\n"
	for _, r := range []int{10, 15, 20} {
		for ports := 2; ports <= 14; ports += 4 {
			probe(fmt.Sprintf("%d\t%d", r, ports), ports, 1, r)
		}
	}
	head = "# Figure 5 (simulated): burst tolerance (MB) vs burst rate and congested queues per port\nrate_x10G\tqueues\tDT_MB\tABM_MB\n"
	for _, r := range []int{10, 15, 20} {
		for queues := 2; queues <= 8; queues += 2 {
			probe(fmt.Sprintf("%d\t%d", r, queues), 4, queues, r)
		}
	}
	return jobs
}

// toleranceEach is one burst-tolerance column per probe of the row.
func toleranceEach(res []runner.Result) string {
	cols := make([]string, len(res))
	for i, r := range res {
		cols[i] = fmt.Sprintf("%.3f", r.Extra["tolerance_mb"])
	}
	return strings.Join(cols, "\t")
}
