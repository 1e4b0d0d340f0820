package obs

import (
	"flag"
	"fmt"
	"strings"
)

// Flags registers the shared telemetry flag surface on the default flag
// set. Every simulation CLI (abmsim, sweep) exposes the same names;
// the only difference is whether paths mean files (one run) or
// directories (one file per job).
type Flags struct {
	Opts Options
}

// AddFlags registers -trace-events, -trace-chrome, -trace-filter,
// -trace-sample and -counters. perJob selects directory semantics for
// the path flags (sweep) instead of single files (abmsim).
func (f *Flags) AddFlags(perJob bool) {
	f.AddFlagsTo(flag.CommandLine, perJob)
}

// AddFlagsTo is AddFlags on an explicit flag set, for CLIs that parse
// into their own set instead of the process-global one.
func (f *Flags) AddFlagsTo(fs *flag.FlagSet, perJob bool) {
	noun := "this file"
	if perJob {
		noun = "one file per job under this directory"
	}
	f.Opts.PerJob = perJob
	fs.StringVar(&f.Opts.EventsFile, "trace-events", "",
		"write the telemetry event stream as NDJSON to "+noun)
	fs.StringVar(&f.Opts.ChromeFile, "trace-chrome", "",
		"write a Chrome trace-event JSON (chrome://tracing, Perfetto) to "+noun)
	fs.StringVar(&f.Opts.Filter, "trace-filter", "",
		"event kinds to record: comma-separated "+strings.Join(kindNames[:], ", ")+
			", or the aliases model, engine, all (default all)")
	fs.Float64Var(&f.Opts.Sample, "trace-sample", 0,
		"keep roughly this fraction of queue-level events, selected by a shard-invariant identity hash (0 or 1 = all)")
	fs.StringVar(&f.Opts.CountersFile, "counters", "",
		"write telemetry counter totals and the per-queue summary TSV to "+noun)
	fs.BoolVar(&f.Opts.Hists, "hists", false,
		"record streaming histograms (FCT slowdown per class, queue occupancy/delay, admission headroom)")
	fs.StringVar(&f.Opts.HistFile, "hist-snapshots", "",
		"write the histogram snapshot series as NDJSON to "+noun+" (implies -hists)")
	fs.StringVar(&f.Opts.MetricsAddr, "metrics-addr", "",
		"serve live /metrics (Prometheus text format) on this address while the run is in flight (implies -hists; per-job runs ignore it)")
}

// Validate checks the flag combination early (before a long run) and
// returns the resolved options.
func (f *Flags) Validate() (Options, error) {
	if _, err := ParseMask(f.Opts.Filter); err != nil {
		return Options{}, err
	}
	if f.Opts.Sample < 0 || f.Opts.Sample > 1 {
		return Options{}, fmt.Errorf("obs: -trace-sample %g outside [0, 1]", f.Opts.Sample)
	}
	return f.Opts, nil
}
