package experiments

import (
	"fmt"
	"io"
	"strings"

	"abm/internal/analytic"
	"abm/internal/runner"
	"abm/internal/scenario"
	"abm/internal/units"
)

// FigureIDs lists the figure identifiers, in paper order. "fig5sim" is
// the simulated (packet-level) cross-check of the analytic Figure 5.
var FigureIDs = []string{"fig4", "fig5", "fig5sim", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "ablation", "alphasweep", "extracc"}

// figure is one table of the evaluation. A simulated figure lists its
// cells, each derived from a base scenario (a scale preset carrying the
// figure seed), and formats the value columns of one table row from the
// results of the cells that share it; an analytic figure computes its
// table directly and has no cells. Cells carry their own row keys, so a
// figure's cells can be listed, run and rendered apart.
type figure struct {
	cells    func(base scenario.Scenario) []job
	values   func(res []runner.Result) string
	analytic func(w io.Writer)
}

// figures holds every figure by ID.
var figures = map[string]figure{
	"fig4":       {analytic: fig4},
	"fig5":       {analytic: fig5},
	"fig5sim":    {cells: fig5simJobs, values: toleranceEach},
	"fig6":       {cells: fig6Jobs, values: tailsAndFlows},
	"fig7":       {cells: fig7Jobs, values: tailsAndFlows},
	"fig8":       {cells: fig8Jobs, values: fig8Values},
	"fig9":       {cells: fig9Jobs, values: incastEach},
	"fig10":      {cells: fig10Jobs, values: fig10Values},
	"fig11":      {cells: fig11Jobs, values: incastEach},
	"fig12":      {cells: fig12Jobs, values: fig12Values},
	"ablation":   {cells: ablationJobs, values: tails},
	"alphasweep": {cells: alphaSweepJobs, values: tails},
	"extracc":    {cells: extraCCJobs, values: incastEach},
}

// tails are the value columns most figures share, of a one-cell row:
// p99 incast and short-flow slowdowns, p99 buffer occupancy and average
// throughput, both in percent.
func tails(res []runner.Result) string {
	s := res[0].Summary
	return fmt.Sprintf("%.1f\t%.1f\t%.1f\t%.1f", s.P99IncastSlowdown, s.P99ShortSlowdown,
		100*s.P99BufferFrac, 100*s.AvgThroughputFrac)
}

// tailsAndFlows adds the flow and unfinished-flow counts (Figures 6-7).
func tailsAndFlows(res []runner.Result) string {
	s := res[0].Summary
	return fmt.Sprintf("%s\t%d\t%d", tails(res), s.Flows, s.Unfinished)
}

// incastEach is one p99 incast-slowdown column per cell of the row.
func incastEach(res []runner.Result) string {
	cols := make([]string, len(res))
	for i, r := range res {
		cols[i] = fmt.Sprintf("%.1f", r.Summary.P99IncastSlowdown)
	}
	return strings.Join(cols, "\t")
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
func fig4(w io.Writer) {
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
}

// fig5 regenerates Figure 5 (analytic): burst tolerance surfaces for DT
// (a: vs congested ports, b: vs congested queues) and ABM (c, d).
func fig5(w io.Writer) {
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
}

func mb(b units.ByteCount) float64 { return float64(b) / float64(units.Megabyte) }

// fig6BMs are the buffer-management baselines of Figures 6-7.
var fig6BMs = []string{"DT", "FAB", "CS", "IB", "ABM"}

// fig7Fracs are Figure 7's incast request sizes (fractions of the
// buffer), shared by Figure 9.
var fig7Fracs = []float64{0.1, 0.25, 0.5, 0.75}

// Figure 6: BM schemes under web-search load 20-80% plus incast at 30%
// of the buffer, all flows Cubic.
func fig6Jobs(base scenario.Scenario) []job {
	var jobs []job
	for _, bmName := range fig6BMs {
		for _, load := range []float64{0.2, 0.4, 0.6, 0.8} {
			jobs = append(jobs, job{label: fmt.Sprintf("bm=%s,load=%g", bmName, load),
				row: fmt.Sprintf("%s\t%.0f", bmName, load*100),
				sc:  cell(base, bmName, load, "cubic", 0.3)})
		}
	}
	return titled("# Figure 6: BM under load (incast 30% of buffer, cubic)\n"+
		"bm\tload\tp99_incast_slowdown\tp99_short_slowdown\tp99_buffer_pct\tavg_tput_pct\tflows\tunfinished\n", jobs)
}

// Figure 7: BM schemes across incast request sizes at 40% web-search
// load.
func fig7Jobs(base scenario.Scenario) []job {
	var jobs []job
	for _, bmName := range fig6BMs {
		for _, frac := range fig7Fracs {
			jobs = append(jobs, job{label: fmt.Sprintf("bm=%s,req=%g", bmName, frac),
				row: fmt.Sprintf("%s\t%.1f", bmName, frac*100),
				sc:  cell(base, bmName, 0.4, "cubic", frac)})
		}
	}
	return titled("# Figure 7: BM under request sizes (load 40%, cubic)\n"+
		"bm\treq_frac_pct\tp99_incast_slowdown\tp99_short_slowdown\tp99_buffer_pct\tavg_tput_pct\tflows\tunfinished\n", jobs)
}

// Figure 8: three priorities carrying Cubic, DCTCP and θ-PowerTCP; the
// Cubic load grows while the others stay fixed; DT vs ABM. Reports
// per-priority p99 short-flow slowdowns.
func fig8Jobs(base scenario.Scenario) []job {
	var jobs []job
	for _, bmName := range []string{"DT", "ABM"} {
		for _, load := range []float64{0.2, 0.4, 0.6} {
			// Cubic at `load` + DCTCP fixed at 0.2, interleaved.
			sc := cell(base, bmName, load+0.2, "", 0.25)
			sc.Buffer.QueuesPerPort = 3
			sc.Workload.MixedCC = []scenario.CCAssignment{
				{CC: "cubic", Prio: 0},
				{CC: "dctcp", Prio: 1},
			}
			sc.Workload.Incast.CC = "theta-powertcp"
			sc.Workload.Incast.Prio = 2
			jobs = append(jobs, job{label: fmt.Sprintf("bm=%s,load=%g", bmName, load),
				row: fmt.Sprintf("%s\t%.0f", bmName, load*100), sc: sc})
		}
	}
	return titled("# Figure 8: isolation across priorities (cubic prio0, dctcp prio1, theta-powertcp incast prio2)\n"+
		"bm\tcubic_load\tp99_cubic\tp99_dctcp\tp99_theta\tp99_buffer_pct\n", jobs)
}

func fig8Values(res []runner.Result) string {
	r := res[0]
	return fmt.Sprintf("%.1f\t%.1f\t%.1f\t%.1f",
		r.Extra[perPrioKey(0)], r.Extra[perPrioKey(1)], r.Extra[perPrioKey(2)],
		100*r.Summary.P99BufferFrac)
}

// Figure 9: advanced congestion control with default buffer management
// (DT) vs with ABM, across incast request sizes.
func fig9Jobs(base scenario.Scenario) []job {
	return ccByRequestJobs(base, "# Figure 9: advanced CC x request size, DT (default) vs ABM\n",
		[]string{"cubic", "dctcp", "timely", "powertcp"}, fig7Fracs)
}

// ccByRequestJobs crosses congestion controls with incast request
// sizes at 40% load, each row a DT cell followed by an ABM cell
// (Figure 9 and its related-work extension).
func ccByRequestJobs(base scenario.Scenario, title string, ccs []string, fracs []float64) []job {
	var jobs []job
	for _, ccName := range ccs {
		for _, frac := range fracs {
			for _, bmName := range []string{"DT", "ABM"} {
				jobs = append(jobs, job{label: fmt.Sprintf("cc=%s,req=%g,bm=%s", ccName, frac, bmName),
					row: fmt.Sprintf("%s\t%.1f", ccName, frac*100),
					sc:  cell(base, bmName, 0.4, ccName, frac)})
			}
		}
	}
	return titled(title+"cc\treq_frac_pct\tp99_incast_DT\tp99_incast_ABM\n", jobs)
}

// Figure 10: the queues-per-port sweep under stable load, Cubic and
// DCTCP, DT vs ABM.
func fig10Jobs(base scenario.Scenario) []job {
	var jobs []job
	for _, ccName := range []string{"cubic", "dctcp"} {
		for _, bmName := range []string{"DT", "ABM"} {
			for _, qpp := range []int{2, 4, 6, 8} {
				sc := cell(base, bmName, 0.4, ccName, 0.25)
				sc.Buffer.QueuesPerPort = qpp
				sc.Workload.RandomPrio = true
				jobs = append(jobs, job{label: fmt.Sprintf("cc=%s,bm=%s,qpp=%d", ccName, bmName, qpp),
					row: fmt.Sprintf("%s\t%s\t%d", ccName, bmName, qpp), sc: sc})
			}
		}
	}
	return titled("# Figure 10: queues per port (load 40%, incast 25%)\n"+
		"cc\tbm\tqueues_per_port\tp99_slowdown\tp99_buffer_pct\n", jobs)
}

func fig10Values(res []runner.Result) string {
	s := res[0].Summary
	return fmt.Sprintf("%.1f\t%.1f", s.P99ShortSlowdown, 100*s.P99BufferFrac)
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

// Figure 11: shallow buffers across device generations, DCTCP and
// PowerTCP, DT vs IB vs ABM (one row per device, one column per
// scheme).
func fig11Jobs(base scenario.Scenario) []job {
	var jobs []job
	for _, ccName := range []string{"dctcp", "powertcp"} {
		for _, dev := range shallowBuffers {
			for _, bmName := range []string{"DT", "IB", "ABM"} {
				// Request sized against the Trident2 buffer so the burst is
				// constant while the buffer shrinks (§4.3).
				sc := cell(base, bmName, 0.4, ccName, 0.25*9.6/dev.kb)
				sc.Buffer.KBPerPortPerGbps = dev.kb
				jobs = append(jobs, job{label: fmt.Sprintf("cc=%s,dev=%s,bm=%s", ccName, dev.name, bmName),
					row: fmt.Sprintf("%s\t%s\t%.2f", ccName, dev.name, dev.kb), sc: sc})
			}
		}
	}
	return titled("# Figure 11: shallow buffers (load 40%, incast 25% of Trident2 buffer)\n"+
		"cc\tdevice\tkb_per_port_gbps\tp99_DT\tp99_IB\tp99_ABM\n", jobs)
}

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
	for _, rtts := range []int{1, 10, 100, 1000} {
		sc := at("ABM-approx")
		sc.Switch.UpdateInterval = scenario.Duration(units.Time(rtts) * baseRTT)
		jobs = append(jobs, job{label: fmt.Sprintf("update=%drtt", rtts), row: fmt.Sprint(rtts), sc: sc})
	}
	jobs = append(jobs, job{label: "bm=DT", row: "DT", sc: at("DT")})
	return titled("# Figure 12: ABM-approx update interval (load 40%, incast 75%, 8 queues/port)\n"+
		"update_rtts\tp999_short_slowdown\tmedian_long_slowdown\n", jobs)
}

func fig12Values(res []runner.Result) string {
	s := res[0].Summary
	return fmt.Sprintf("%.1f\t%.2f", s.P999AllShortSlowdown, s.MedianLongSlowdown)
}
