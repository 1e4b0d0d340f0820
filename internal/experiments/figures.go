package experiments

import (
	"fmt"
	"io"

	"abm/internal/analytic"
	"abm/internal/runner"
	"abm/internal/scenario"
	"abm/internal/units"
)

// FigureIDs lists the figure identifiers, in paper order. "fig5sim" is
// the simulated (packet-level) cross-check of the analytic Figure 5.
var FigureIDs = []string{"fig4", "fig5", "fig5sim", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "ablation", "alphasweep", "extracc"}

// figure is one simulated figure: jobs lists its cells, each built from
// a base scenario (a scale preset carrying the figure seed), and render
// writes its TSV table from their results, in job order. The two stay
// apart so a figure's cells can be listed without running them.
type figure struct {
	jobs   func(base scenario.Scenario) []job
	render func(w io.Writer, res []runner.Result)
}

// figures holds every figure whose cells are scenarios.
var figures = map[string]figure{
	"fig6":       {fig6Jobs, fig6Render},
	"fig7":       {fig7Jobs, fig7Render},
	"fig8":       {fig8Jobs, fig8Render},
	"fig9":       {fig9Jobs, fig9Render},
	"fig10":      {fig10Jobs, fig10Render},
	"fig11":      {fig11Jobs, fig11Render},
	"fig12":      {fig12Jobs, fig12Render},
	"ablation":   {ablationJobs, ablationRender},
	"alphasweep": {alphaSweepJobs, alphaSweepRender},
	"extracc":    {extraCCJobs, extraCCRender},
}

// RunFigure regenerates one figure by id, writing its TSV table to w.
// Simulated figures build their cells from base — scenario.Preset of a
// scale with the figure seed set, optionally on another fabric — and
// run them on the pool o describes (nil: every CPU, no store); the
// output is identical at any worker count.
func RunFigure(o *RunOptions, id string, base scenario.Scenario, w io.Writer) error {
	switch id {
	case "fig4":
		return fig4(w)
	case "fig5":
		return fig5(w)
	case "fig5sim":
		return fig5sim(o, w)
	}
	fig, ok := figures[id]
	if !ok {
		return fmt.Errorf("experiments: unknown figure %q (known: %v)", id, FigureIDs)
	}
	res, err := runCells(o, id, fig.jobs(base))
	if err != nil {
		return err
	}
	fig.render(w, res)
	return nil
}

// cell derives one figure cell from the base: the scheme, the
// background load and its congestion control, and the incast request
// size as a fraction of the buffer.
func cell(base scenario.Scenario, bmName string, load float64, ccName string, request float64) scenario.Scenario {
	sc := base.Clone()
	sc.Switch.BM = bmName
	sc.Workload.Load = load
	sc.Workload.CC = ccName
	sc.Workload.Incast.RequestFrac = request
	return sc
}

// fig4 regenerates Figure 4 (analytic): DT's unbounded allocation as
// congested queues multiply (top) and the priority inversion between a
// high-alpha and a low-alpha priority (bottom).
func fig4(w io.Writer) error {
	fmt.Fprintln(w, "# Figure 4 (top): DT occupied buffer % vs congested queues (alpha=0.5)")
	fmt.Fprintln(w, "queues\toccupied_pct")
	b := units.ByteCount(5 * units.Megabyte)
	for n := 1; n <= 20; n++ {
		_, total := analytic.DTSteadyOccupancy(b, []analytic.PriorityLoad{{Alpha: 0.5, Congested: n}})
		fmt.Fprintf(w, "%d\t%.1f\n", n, 100*float64(total)/float64(b))
	}
	fmt.Fprintln(w, "# Figure 4 (bottom): priority inversion, alpha1=8 (loss-sensitive, 2 queues), alpha2=1 (best effort, growing)")
	fmt.Fprintln(w, "queues_prio1\tprio_loss_sensitive_pct\tprio_best_effort_pct")
	for n := 1; n <= 20; n++ {
		per, _ := analytic.DTSteadyOccupancy(b, []analytic.PriorityLoad{
			{Alpha: 8, Congested: 2},
			{Alpha: 1, Congested: n},
		})
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\n", n,
			100*float64(per[0])/float64(b), 100*float64(per[1])/float64(b))
	}
	return nil
}

// fig5 regenerates Figure 5 (analytic): burst tolerance surfaces for DT
// (a: vs congested ports, b: vs congested queues) and ABM (c, d).
func fig5(w io.Writer) error {
	base := analytic.BurstScenario{
		B:          5 * units.Megabyte,
		PortRate:   10 * units.GigabitPerSec,
		Alpha:      0.5,
		AlphaBurst: 64,
	}
	fmt.Fprintln(w, "# Figure 5a/5c: burst tolerance (MB) vs burst rate (x10Gbps) and congested ports")
	fmt.Fprintln(w, "rate_x10G\tports\tDT_MB\tABM_MB")
	for r := 10; r <= 20; r += 2 {
		for ports := 2; ports <= 14; ports += 2 {
			s := base
			s.BurstRate = units.Rate(r) * 10 * units.GigabitPerSec
			s.CongestedPorts = ports
			s.QueuesPerPort = 1
			fmt.Fprintf(w, "%d\t%d\t%.3f\t%.3f\n", r, ports,
				mb(s.DTBurstTolerance()), mb(s.ABMBurstTolerance()))
		}
	}
	fmt.Fprintln(w, "# Figure 5b/5d: burst tolerance (MB) vs burst rate (x10Gbps) and congested queues per port")
	fmt.Fprintln(w, "rate_x10G\tqueues\tDT_MB\tABM_MB")
	for r := 10; r <= 20; r += 2 {
		for queues := 2; queues <= 8; queues++ {
			s := base
			s.BurstRate = units.Rate(r) * 10 * units.GigabitPerSec
			s.CongestedPorts = 4
			s.QueuesPerPort = queues
			fmt.Fprintf(w, "%d\t%d\t%.3f\t%.3f\n", r, queues,
				mb(s.DTBurstTolerance()), mb(s.ABMBurstTolerance()))
		}
	}
	return nil
}

func mb(b units.ByteCount) float64 { return float64(b) / float64(units.Megabyte) }

// fig6BMs are the buffer-management baselines of Figures 6-7.
var fig6BMs = []string{"DT", "FAB", "CS", "IB", "ABM"}

// fig6Loads are Figure 6's web-search load points.
var fig6Loads = []float64{0.2, 0.4, 0.6, 0.8}

// Figure 6: BM schemes under web-search load 20-80% plus incast at 30%
// of the buffer, all flows Cubic.
func fig6Jobs(base scenario.Scenario) []job {
	var jobs []job
	for _, bmName := range fig6BMs {
		for _, load := range fig6Loads {
			jobs = append(jobs, job{fmt.Sprintf("bm=%s,load=%g", bmName, load),
				cell(base, bmName, load, "cubic", 0.3)})
		}
	}
	return jobs
}

func fig6Render(w io.Writer, res []runner.Result) {
	fmt.Fprintln(w, "# Figure 6: BM under load (incast 30% of buffer, cubic)")
	fmt.Fprintln(w, "bm\tload\tp99_incast_slowdown\tp99_short_slowdown\tp99_buffer_pct\tavg_tput_pct\tflows\tunfinished")
	i := 0
	for _, bmName := range fig6BMs {
		for _, load := range fig6Loads {
			s := res[i].Summary
			i++
			fmt.Fprintf(w, "%s\t%.0f\t%.1f\t%.1f\t%.1f\t%.1f\t%d\t%d\n",
				bmName, load*100, s.P99IncastSlowdown, s.P99ShortSlowdown,
				100*s.P99BufferFrac, 100*s.AvgThroughputFrac, s.Flows, s.Unfinished)
		}
	}
}

// fig7Fracs are Figure 7's incast request sizes (fractions of the
// buffer).
var fig7Fracs = []float64{0.1, 0.25, 0.5, 0.75}

// Figure 7: BM schemes across incast request sizes at 40% web-search
// load.
func fig7Jobs(base scenario.Scenario) []job {
	var jobs []job
	for _, bmName := range fig6BMs {
		for _, frac := range fig7Fracs {
			jobs = append(jobs, job{fmt.Sprintf("bm=%s,req=%g", bmName, frac),
				cell(base, bmName, 0.4, "cubic", frac)})
		}
	}
	return jobs
}

func fig7Render(w io.Writer, res []runner.Result) {
	fmt.Fprintln(w, "# Figure 7: BM under request sizes (load 40%, cubic)")
	fmt.Fprintln(w, "bm\treq_frac_pct\tp99_incast_slowdown\tp99_short_slowdown\tp99_buffer_pct\tavg_tput_pct\tflows\tunfinished")
	i := 0
	for _, bmName := range fig6BMs {
		for _, frac := range fig7Fracs {
			s := res[i].Summary
			i++
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%d\t%d\n",
				bmName, frac*100, s.P99IncastSlowdown, s.P99ShortSlowdown,
				100*s.P99BufferFrac, 100*s.AvgThroughputFrac, s.Flows, s.Unfinished)
		}
	}
}

// fig8Loads are Figure 8's Cubic load points.
var fig8Loads = []float64{0.2, 0.4, 0.6}

// Figure 8: three priorities carrying Cubic, DCTCP and θ-PowerTCP; the
// Cubic load grows while the others stay fixed; DT vs ABM. Reports
// per-priority p99 short-flow slowdowns.
func fig8Jobs(base scenario.Scenario) []job {
	var jobs []job
	for _, bmName := range []string{"DT", "ABM"} {
		for _, load := range fig8Loads {
			// Cubic at `load` + DCTCP fixed at 0.2, interleaved.
			sc := cell(base, bmName, load+0.2, "", 0.25)
			sc.Buffer.QueuesPerPort = 3
			sc.Workload.MixedCC = []scenario.CCAssignment{
				{CC: "cubic", Prio: 0},
				{CC: "dctcp", Prio: 1},
			}
			sc.Workload.Incast.CC = "theta-powertcp"
			sc.Workload.Incast.Prio = 2
			jobs = append(jobs, job{fmt.Sprintf("bm=%s,load=%g", bmName, load), sc})
		}
	}
	return jobs
}

func fig8Render(w io.Writer, res []runner.Result) {
	fmt.Fprintln(w, "# Figure 8: isolation across priorities (cubic prio0, dctcp prio1, theta-powertcp incast prio2)")
	fmt.Fprintln(w, "bm\tcubic_load\tp99_cubic\tp99_dctcp\tp99_theta\tp99_buffer_pct")
	i := 0
	for _, bmName := range []string{"DT", "ABM"} {
		for _, load := range fig8Loads {
			r := res[i]
			i++
			fmt.Fprintf(w, "%s\t%.0f\t%.1f\t%.1f\t%.1f\t%.1f\n",
				bmName, load*100,
				r.Extra[perPrioKey(0)], r.Extra[perPrioKey(1)], r.Extra[perPrioKey(2)],
				100*r.Summary.P99BufferFrac)
		}
	}
}

// fig9CCs are Figure 9's congestion-control algorithms.
var fig9CCs = []string{"cubic", "dctcp", "timely", "powertcp"}

// Figure 9: advanced congestion control with default buffer management
// (DT) vs with ABM, across incast request sizes.
func fig9Jobs(base scenario.Scenario) []job {
	return ccByRequestJobs(base, fig9CCs, fig7Fracs)
}

func fig9Render(w io.Writer, res []runner.Result) {
	fmt.Fprintln(w, "# Figure 9: advanced CC x request size, DT (default) vs ABM")
	ccByRequestRender(w, res, fig9CCs, fig7Fracs)
}

// ccByRequestJobs crosses congestion controls with incast request
// sizes at 40% load, each point a DT cell followed by an ABM cell
// (Figure 9 and its related-work extension).
func ccByRequestJobs(base scenario.Scenario, ccs []string, fracs []float64) []job {
	var jobs []job
	for _, ccName := range ccs {
		for _, frac := range fracs {
			for _, bmName := range []string{"DT", "ABM"} {
				jobs = append(jobs, job{fmt.Sprintf("cc=%s,req=%g,bm=%s", ccName, frac, bmName),
					cell(base, bmName, 0.4, ccName, frac)})
			}
		}
	}
	return jobs
}

func ccByRequestRender(w io.Writer, res []runner.Result, ccs []string, fracs []float64) {
	fmt.Fprintln(w, "cc\treq_frac_pct\tp99_incast_DT\tp99_incast_ABM")
	i := 0
	for _, ccName := range ccs {
		for _, frac := range fracs {
			dt := res[i].Summary.P99IncastSlowdown
			abm := res[i+1].Summary.P99IncastSlowdown
			i += 2
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\n", ccName, frac*100, dt, abm)
		}
	}
}

// fig10QPPs are Figure 10's queues-per-port points.
var fig10QPPs = []int{2, 4, 6, 8}

// Figure 10: the queues-per-port sweep under stable load, Cubic and
// DCTCP, DT vs ABM.
func fig10Jobs(base scenario.Scenario) []job {
	var jobs []job
	for _, ccName := range []string{"cubic", "dctcp"} {
		for _, bmName := range []string{"DT", "ABM"} {
			for _, qpp := range fig10QPPs {
				sc := cell(base, bmName, 0.4, ccName, 0.25)
				sc.Buffer.QueuesPerPort = qpp
				sc.Workload.RandomPrio = true
				jobs = append(jobs, job{fmt.Sprintf("cc=%s,bm=%s,qpp=%d", ccName, bmName, qpp), sc})
			}
		}
	}
	return jobs
}

func fig10Render(w io.Writer, res []runner.Result) {
	fmt.Fprintln(w, "# Figure 10: queues per port (load 40%, incast 25%)")
	fmt.Fprintln(w, "cc\tbm\tqueues_per_port\tp99_slowdown\tp99_buffer_pct")
	i := 0
	for _, ccName := range []string{"cubic", "dctcp"} {
		for _, bmName := range []string{"DT", "ABM"} {
			for _, qpp := range fig10QPPs {
				s := res[i].Summary
				i++
				fmt.Fprintf(w, "%s\t%s\t%d\t%.1f\t%.1f\n",
					ccName, bmName, qpp, s.P99ShortSlowdown, 100*s.P99BufferFrac)
			}
		}
	}
}

// shallowBuffers maps §4.3's device generations to KB/port/Gbps.
var shallowBuffers = []struct {
	name string
	kb   float64
}{
	{"Trident2", 9.6},
	{"8KB", 8},
	{"7KB", 7},
	{"6KB", 6},
	{"Tomahawk", 5.12},
	{"Tofino", 3.44},
}

// fig11BMs are Figure 11's schemes, in column order.
var fig11BMs = []string{"DT", "IB", "ABM"}

// Figure 11: shallow buffers across device generations, DCTCP and
// PowerTCP, DT vs IB vs ABM.
func fig11Jobs(base scenario.Scenario) []job {
	var jobs []job
	for _, ccName := range []string{"dctcp", "powertcp"} {
		for _, dev := range shallowBuffers {
			for _, bmName := range fig11BMs {
				// Request sized against the Trident2 buffer so the burst is
				// constant while the buffer shrinks (§4.3).
				sc := cell(base, bmName, 0.4, ccName, 0.25*9.6/dev.kb)
				sc.Buffer.KBPerPortPerGbps = dev.kb
				jobs = append(jobs, job{fmt.Sprintf("cc=%s,dev=%s,bm=%s", ccName, dev.name, bmName), sc})
			}
		}
	}
	return jobs
}

func fig11Render(w io.Writer, res []runner.Result) {
	fmt.Fprintln(w, "# Figure 11: shallow buffers (load 40%, incast 25% of Trident2 buffer)")
	fmt.Fprintln(w, "cc\tdevice\tkb_per_port_gbps\tp99_DT\tp99_IB\tp99_ABM")
	i := 0
	for _, ccName := range []string{"dctcp", "powertcp"} {
		for _, dev := range shallowBuffers {
			var vals [3]float64
			for j := range fig11BMs {
				vals[j] = res[i].Summary.P99IncastSlowdown
				i++
			}
			fmt.Fprintf(w, "%s\t%s\t%.2f\t%.1f\t%.1f\t%.1f\n",
				ccName, dev.name, dev.kb, vals[0], vals[1], vals[2])
		}
	}
}

// fig12Intervals are Figure 12's update intervals in base RTTs.
var fig12Intervals = []int{1, 10, 100, 1000}

// Figure 12: approximating ABM on DT with periodic alpha
// reconfiguration; the update interval sweeps 1x to 1000x RTT, with
// plain DT as the limit (the extra last cell).
func fig12Jobs(base scenario.Scenario) []job {
	baseRTT := 80 * units.Microsecond
	at := func(bmName string) scenario.Scenario {
		sc := cell(base, bmName, 0.4, "cubic", 0.75)
		sc.Workload.Incast.Fanout = 16 // responses sized within the first RTT (§3.3 traffic)
		sc.Buffer.QueuesPerPort = 8
		sc.Workload.RandomPrio = true
		return sc
	}
	var jobs []job
	for _, rtts := range fig12Intervals {
		sc := at("ABM-approx")
		sc.Switch.UpdateInterval = scenario.Duration(units.Time(rtts) * baseRTT)
		jobs = append(jobs, job{fmt.Sprintf("update=%drtt", rtts), sc})
	}
	return append(jobs, job{"bm=DT", at("DT")})
}

func fig12Render(w io.Writer, res []runner.Result) {
	fmt.Fprintln(w, "# Figure 12: ABM-approx update interval (load 40%, incast 75%, 8 queues/port)")
	fmt.Fprintln(w, "update_rtts\tp999_short_slowdown\tmedian_long_slowdown")
	for i, rtts := range fig12Intervals {
		s := res[i].Summary
		fmt.Fprintf(w, "%d\t%.1f\t%.2f\n", rtts,
			s.P999AllShortSlowdown, s.MedianLongSlowdown)
	}
	s := res[len(res)-1].Summary
	fmt.Fprintf(w, "DT\t%.1f\t%.2f\n", s.P999AllShortSlowdown, s.MedianLongSlowdown)
}
