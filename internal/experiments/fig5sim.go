package experiments

import (
	"context"
	"fmt"
	"io"

	"abm/internal/bm"
	"abm/internal/burstlab"
	"abm/internal/runner"
	"abm/internal/units"
)

// fig5simProbe is one burst-tolerance measurement point.
type fig5simProbe struct {
	scheme  string
	ports   int
	queues  int
	rateX10 int
}

// measureBurst runs one burst-lab measurement for a probe.
func measureBurst(p fig5simProbe) units.ByteCount {
	cfg := burstlab.Config{
		Seed:           1,
		CongestedPorts: p.ports,
		QueuesPerPort:  p.queues,
		BurstRate:      units.Rate(p.rateX10) * 10 * units.GigabitPerSec,
	}
	if p.scheme == "ABM" {
		cfg.BM = func() bm.Policy { return bm.ABM{} }
		cfg.Unscheduled = true
		cfg.Headroom = 512 * units.Kilobyte
		cfg.Buffer = 5*units.Megabyte - cfg.Headroom
	} else {
		cfg.BM = func() bm.Policy { return bm.DT{} }
	}
	return burstlab.Measure(cfg).Tolerance
}

// fig5sim regenerates Figure 5's burst-tolerance surfaces by measuring
// them on the packet simulator (package burstlab) instead of the fluid
// model — a cross-check that the analytic shapes of Fig5 survive
// packetization, scheduling, and periodic statistics updates. The
// probes run as generic jobs on the runner pool: the burst lab builds
// no fabric, so its probes are not scenarios.
func fig5sim(o *RunOptions, w io.Writer) error {
	var probes []fig5simProbe
	for _, r := range []int{10, 15, 20} {
		for ports := 2; ports <= 14; ports += 4 {
			probes = append(probes,
				fig5simProbe{"DT", ports, 1, r}, fig5simProbe{"ABM", ports, 1, r})
		}
	}
	queueStart := len(probes)
	for _, r := range []int{10, 15, 20} {
		for queues := 2; queues <= 8; queues += 2 {
			probes = append(probes,
				fig5simProbe{"DT", 4, queues, r}, fig5simProbe{"ABM", 4, queues, r})
		}
	}

	plan := &runner.Plan{Name: "fig5sim"}
	for i, p := range probes {
		probe := p
		plan.Add(runner.Spec{
			ID: fmt.Sprintf("fig5sim/%02d-%s,ports=%d,queues=%d,rate=%dx",
				i, probe.scheme, probe.ports, probe.queues, probe.rateX10),
			Experiment: "fig5sim",
			Group: fmt.Sprintf("%s,ports=%d,queues=%d,rate=%dx",
				probe.scheme, probe.ports, probe.queues, probe.rateX10),
			Seed:   1, // the burst lab is seeded internally
			Config: map[string]any{"scheme": probe.scheme, "ports": probe.ports, "queues": probe.queues, "rate_x10g": probe.rateX10},
			Run: func(_ context.Context, _ int64) (runner.Result, error) {
				tol := measureBurst(probe)
				return runner.Result{Extra: map[string]float64{"tolerance_mb": mb(tol)}}, nil
			},
		})
	}
	records, err := o.pool().Run(context.Background(), plan)
	if err != nil {
		return err
	}
	tol := make([]float64, len(records))
	for i, rec := range records {
		if !rec.OK() {
			return fmt.Errorf("experiments: %s: %s (%s)", rec.ID, rec.Error, rec.Status)
		}
		tol[i] = rec.Result.Extra["tolerance_mb"]
	}

	fmt.Fprintln(w, "# Figure 5 (simulated): burst tolerance (MB) vs burst rate and congested ports")
	fmt.Fprintln(w, "rate_x10G\tports\tDT_MB\tABM_MB")
	i := 0
	for _, r := range []int{10, 15, 20} {
		for ports := 2; ports <= 14; ports += 4 {
			fmt.Fprintf(w, "%d\t%d\t%.3f\t%.3f\n", r, ports, tol[i], tol[i+1])
			i += 2
		}
	}
	if i != queueStart {
		return fmt.Errorf("experiments: fig5sim probe bookkeeping off: %d != %d", i, queueStart)
	}
	fmt.Fprintln(w, "# Figure 5 (simulated): burst tolerance (MB) vs burst rate and congested queues per port")
	fmt.Fprintln(w, "rate_x10G\tqueues\tDT_MB\tABM_MB")
	for _, r := range []int{10, 15, 20} {
		for queues := 2; queues <= 8; queues += 2 {
			fmt.Fprintf(w, "%d\t%d\t%.3f\t%.3f\n", r, queues, tol[i], tol[i+1])
			i += 2
		}
	}
	return nil
}
