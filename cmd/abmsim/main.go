// Command abmsim runs one simulation — a buffer-management scheme
// facing the paper's workloads on a leaf-spine fabric — and prints the
// headline metrics.
//
// The run is described either by flags, by a declarative scenario file,
// or both (explicitly-set flags override the file's fields):
//
//	abmsim -bm ABM -cc cubic -load 0.6 -request 0.3 -scale medium
//	abmsim -scenario examples/incast/scenario.json -shards 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"abm"
	"abm/internal/obs"
	"abm/internal/prof"
	"abm/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
}

// run parses args, compiles them into a scenario and executes it. All
// flag surfaces live on a private FlagSet so tests can drive the CLI
// in-process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("abmsim", flag.ContinueOnError)
	var (
		bmName  = fs.String("bm", "ABM", "buffer management scheme: "+strings.Join(abm.BMSchemes(), ", "))
		ccName  = fs.String("cc", "cubic", "congestion control: "+strings.Join(abm.CCAlgorithms(), ", "))
		load    = fs.Float64("load", 0.4, "web-search load as a fraction of bisection bandwidth")
		request = fs.Float64("request", 0.3, "incast request size as a fraction of the buffer (0 disables)")
		fanout  = fs.Int("fanout", 8, "incast fan-in degree")
		qpp     = fs.Int("queues", 1, "queues per port")
		kb      = fs.Float64("buffer", 9.6, "buffer in KB per port per Gb/s (Trident2=9.6, Tomahawk=5.12, Tofino=3.44)")
		scale   = fs.String("scale", "small", "fabric scale: small, medium, paper")
		seed    = fs.Int64("seed", 1, "random seed")
		shards  = fs.Int("shards", 0, "simulation shards (0 = one shard with direct tier links, the serial tie order; >=1 routes tier links through mailboxes, clamped to the fabric's leaf count)")
		update  = fs.Duration("update", 0, "ABM-approx control-plane update interval (e.g. 800us)")
		flows   = fs.String("flows", "", "write a per-flow TSV trace to this file")
		sched   = fs.String("sched", "rr", "per-port scheduler: rr, dwrr, strict")
		wl      = fs.String("workload", "websearch", "background workload: websearch, datamining")
		scnIn   = fs.String("scenario", "", "load the run from this scenario JSON file; explicitly-set flags override its fields")
		scnOut  = fs.String("save-scenario", "", "write the fully-resolved scenario as JSON and exit")
		dur     = fs.Duration("duration", 0, "traffic duration override (e.g. 2ms; 0 = the scale's default)")
		hybrid  = fs.Bool("hybrid", false, "enable the hybrid fluid/packet engine (-shards 0 only)")
		topol   = fs.String("topology", "", "fabric topology: leafspine or fattree; empty keeps the scenario/scale shape")
		karity  = fs.Int("k", 0, "fat-tree arity (even, >= 2; implies -topology fattree)")
		of      obs.Flags
		pf      prof.Flags
	)
	of.AddFlagsTo(fs, false)
	pf.AddFlagsTo(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	obsOpts, err := of.Validate()
	if err != nil {
		return err
	}

	// Every flag compiles straight into one scenario: explicitly-set
	// flags overlay a -scenario file; without one, every flag (defaults
	// included) overlays the -scale preset.
	preset, err := scenario.Preset(*scale)
	if err != nil {
		return err
	}
	sc := preset
	if *scnIn != "" {
		if sc, err = abm.LoadScenario(*scnIn); err != nil {
			return err
		}
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for name, apply := range map[string]func(){
		"scale": func() {
			f := &sc.Fabric
			f.Spines, f.Leaves, f.HostsPerLeaf = preset.Fabric.Spines, preset.Fabric.Leaves, preset.Fabric.HostsPerLeaf
			sc.Duration = preset.Duration
		},
		"bm":       func() { sc.Switch.BM = *bmName },
		"cc":       func() { sc.Workload.CC = *ccName },
		"load":     func() { sc.Workload.Load = *load },
		"request":  func() { sc.Workload.Incast.RequestFrac = *request },
		"fanout":   func() { sc.Workload.Incast.Fanout = *fanout },
		"queues":   func() { sc.Buffer.QueuesPerPort = *qpp },
		"buffer":   func() { sc.Buffer.KBPerPortPerGbps = *kb },
		"seed":     func() { sc.Seed = *seed },
		"shards":   func() { sc.Shards = *shards },
		"update":   func() { sc.Switch.UpdateInterval = simTime(*update) },
		"sched":    func() { sc.Switch.Scheduler = *sched },
		"workload": func() { sc.Workload.Background = *wl },
		"hybrid":   func() { sc.Hybrid.Enabled = *hybrid },
	} {
		if set[name] || *scnIn == "" {
			apply()
		}
	}
	// -duration applies after -scale, whose preset carries a duration.
	if *dur > 0 {
		sc.Duration = simTime(*dur)
	}
	if obsOpts.Active() {
		sc.Obs = obsOpts
	}
	// Topology flags apply last: a fat tree is sized by k alone, so they
	// clear whatever leaf–spine dimensions -scale or the file set.
	if *karity > 0 && *topol == "" {
		*topol = "fattree"
	}
	if *topol != "" {
		sc.Fabric.Topology = *topol
		if *topol == "fattree" {
			sc.Fabric.K = *karity
			sc.Fabric.Spines, sc.Fabric.Leaves, sc.Fabric.HostsPerLeaf = 0, 0, 0
		}
	}
	if *scnOut != "" {
		resolved, err := sc.Resolve()
		if err != nil {
			return err
		}
		if err := resolved.Save(*scnOut); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "resolved scenario written to %s\n", *scnOut)
		return nil
	}

	stopProf, err := pf.Start()
	if err != nil {
		return err
	}
	start := time.Now()
	res, col, err := abm.RunScenarioDetailed(sc)
	stopProf()
	if err != nil {
		return err
	}
	if *flows != "" {
		f, err := os.Create(*flows)
		if err != nil {
			return err
		}
		if err := abm.WriteFlowTrace(f, col.Flows); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "flow trace written to %s (%d flows)\n", *flows, len(col.Flows))
	}
	printResult(stdout, res, time.Since(start))
	return nil
}

// simTime converts a flag's wall-clock duration to simulated time.
func simTime(d time.Duration) scenario.Duration {
	return scenario.Duration(d.Nanoseconds()) * scenario.Duration(abm.Nanosecond)
}

// printResult renders the headline metrics from the run's resolved
// scenario and summary.
func printResult(w io.Writer, res abm.ScenarioResult, wall time.Duration) {
	rs := res.Scenario
	s := res.Summary
	fmt.Fprintf(w, "scheme            %s\n", rs.Switch.BM)
	fmt.Fprintf(w, "congestion ctrl   %s\n", rs.Workload.CC)
	if rs.Fabric.Topology == "fattree" {
		fmt.Fprintf(w, "fabric            fat-tree k=%d (seed %d)\n", rs.Fabric.K, rs.Seed)
	} else {
		fmt.Fprintf(w, "fabric            %dx%dx%d (seed %d)\n",
			rs.Fabric.Spines, rs.Fabric.Leaves, rs.Fabric.HostsPerLeaf, rs.Seed)
	}
	fmt.Fprintf(w, "load / request    %.0f%% / %.0f%% of buffer\n",
		rs.Workload.Load*100, rs.Workload.Incast.RequestFrac*100)
	fmt.Fprintln(w, strings.Repeat("-", 44))
	fmt.Fprintf(w, "p99 incast FCT slowdown    %10.1f\n", s.P99IncastSlowdown)
	fmt.Fprintf(w, "p99 short-flow slowdown    %10.1f\n", s.P99ShortSlowdown)
	fmt.Fprintf(w, "p99.9 short-flow slowdown  %10.1f\n", s.P999ShortSlowdown)
	fmt.Fprintf(w, "median long-flow slowdown  %10.2f\n", s.MedianLongSlowdown)
	fmt.Fprintf(w, "p99 buffer occupancy       %9.1f%%\n", 100*s.P99BufferFrac)
	fmt.Fprintf(w, "avg long-flow throughput   %9.1f%%\n", 100*s.AvgThroughputFrac)
	fmt.Fprintln(w, strings.Repeat("-", 44))
	fmt.Fprintf(w, "flows %d (unfinished %d), drops %d (unscheduled %d)\n",
		s.Flows, s.Unfinished, res.Drops, res.UnscheduledDrops)
	fmt.Fprintf(w, "%d events in %.1fs wall time\n", res.Events, wall.Seconds())
	if h := res.Hybrid; h != nil {
		fmt.Fprintf(w, "hybrid: %d demotions, %d promotions, %d epochs, %d fluid bytes (max %d concurrent)\n",
			h.Demotions, h.Promotions, h.Epochs, h.FluidBytes, h.MaxFluid)
	}
	if len(res.Counters) > 0 {
		fmt.Fprintln(w, strings.Repeat("-", 44))
		keys := make([]string, 0, len(res.Counters))
		for k := range res.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%-32s %12d\n", k, res.Counters[k])
		}
	}
	for _, out := range []struct{ what, path string }{
		{"event trace", rs.Obs.EventsFile},
		{"chrome trace", rs.Obs.ChromeFile},
		{"counter summary", rs.Obs.CountersFile},
		{"histogram snapshots", rs.Obs.HistFile},
	} {
		if out.path != "" {
			fmt.Fprintf(w, "%s written to %s\n", out.what, out.path)
		}
	}
}
