package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// document is the benchmark's full output: every metric by name, with
// unit, median, quartiles, minimum and sample count.
type document struct {
	Env   environment `json:"env"`
	Seed  int64       `json:"seed"`
	Phase string      `json:"phase"`
	// Probes are the isolated-layer timings; they do not depend on the
	// workload, so they are reported once.
	Probes    map[string]stat  `json:"probes,omitempty"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name     string          `json:"name"`
	Why      string          `json:"why"`
	EndToEnd map[string]stat `json:"end_to_end,omitempty"`
	PerLayer map[string]stat `json:"per_layer,omitempty"`
	Checks   verdict         `json:"checks"`
}

func (d *document) printJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// printDriverLine prints the one-line result the acceptance driver
// reads: the workload's gated end-to-end metrics, or with perLayer
// every per-layer metric (probes and the workload's own), as medians.
func (d *document) printDriverLine(w io.Writer, perLayer bool) error {
	rep := d.Workloads[0]
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Checks.Failed == 0, rep.Checks.Attempted, rep.Checks.Failed, map[string]value{}}
	add := func(m map[string]stat) {
		for name, st := range m {
			out.Metrics[name] = value{st.Median, st.Unit}
		}
	}
	if perLayer {
		add(d.Probes)
		add(rep.PerLayer)
	} else {
		for _, def := range endToEnd {
			if def.gated {
				out.Metrics[def.name] = value{rep.EndToEnd[def.name].Median, def.unit}
			}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func (d *document) printTable(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	defer tw.Flush()
	e := d.Env
	fmt.Fprintf(tw, "# seed %d, phase %s, %s, nproc %d, GOMAXPROCS %d, %s, loadavg %s\n",
		d.Seed, d.Phase, e.GoVersion, e.NProc, e.GOMAXPROCS, e.CPUModel, e.LoadAvg)
	row := func(name string, st stat) {
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%s\t%s\t%s\t%d\n", name, st.Unit,
			num(st.Median), num(st.Q1), num(st.Q3), num(st.Min), num(st.Max), st.N)
	}
	header := func(title string) {
		fmt.Fprintf(tw, "\n%s\n  metric\tunit\tmedian\tq1\tq3\tmin\tmax\tn\n", title)
	}
	for _, rep := range d.Workloads {
		c := rep.Checks
		header(fmt.Sprintf("== %s  (%d ops, %d failed, digest_changed=%v)", rep.Name, c.Attempted, c.Failed, c.DigestChanged))
		for _, v := range c.Violations {
			fmt.Fprintf(tw, "  VIOLATION: %s\n", v)
		}
		for _, diff := range c.DigestDiff {
			fmt.Fprintf(tw, "  digest: %s\n", diff)
		}
		for _, def := range endToEnd {
			if st, ok := rep.EndToEnd[def.name]; ok {
				row(def.name, st)
			}
		}
		for _, name := range sortedKeys(rep.PerLayer) {
			row(name, rep.PerLayer[name])
		}
	}
	if len(d.Probes) > 0 {
		header("== probes (isolated layers, cache-hot)")
		for _, name := range sortedKeys(d.Probes) {
			row(name, d.Probes[name])
		}
		d.printShares(tw)
	}
}

// printShares is the "where does the time go" table: one row per
// workload, one column per layer. Shares are lower bounds (probes run
// cache-hot) and need not sum to 1; the rest is unattributed.
func (d *document) printShares(tw *tabwriter.Writer) {
	cols := []string{"eventq_sim", "device", "bm", "aqm", "topo", "transport", "cc", "unattributed"}
	fmt.Fprintf(tw, "\n== share of untraced wall_s by layer (probe ns/op x exact op count / wall)\n  workload")
	for _, c := range cols {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for _, rep := range d.Workloads {
		fmt.Fprintf(tw, "  %s", rep.Name)
		for _, c := range cols {
			fmt.Fprintf(tw, "\t%.3f", rep.PerLayer["share."+c].Median)
		}
		fmt.Fprintln(tw)
	}
}

// num prints a value with enough digits to compare runs and no more.
func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 5, 64)
}

// environment records what the numbers were measured on; a ledger line
// without it cannot be compared with anything.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LoadAvg    string `json:"loadavg"`
	Warning    string `json:"warning,omitempty"`
}

func firstField(s string) string {
	if f := strings.Fields(s); len(f) > 0 {
		return f[0]
	}
	return ""
}

func readEnvironment() environment {
	e := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		LoadAvg:    "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		e.LoadAvg = strings.TrimSpace(string(data))
		if load, err := strconv.ParseFloat(firstField(e.LoadAvg), 64); err == nil && load > 0.5 {
			e.Warning = fmt.Sprintf("1-minute load average is %.2f: other work on this machine will widen every spread", load)
		}
	}
	return e
}

// agree runs the untraced phase twice back to back on the same code and
// tests that the two sets of medians agree within each metric's bound.
// A gap over the bound fails; a pair whose own spread is wider than
// the bound is reported as unresolved, since agreement there would
// mean little.
func (b *bench) agree(env environment, ws []workload, reps func(workload) int, seconds float64) error {
	var sets [2][]*e2eRun
	for i := range sets {
		rs, err := b.runE2E(ws, reps, seconds)
		if err != nil {
			return err
		}
		sets[i] = rs
		// The second set must measure again, not reuse the first's reference.
		b.refs = make(map[string]sample)
	}
	data, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("# agree: two sets of runs of the same code, seed %d\n# env %s\n", b.seed, data)
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian A\tmedian B\tgap\tspread A\tspread B\tbound\tverdict")
	ok := true
	for i := range ws {
		a, c := sets[0][i], sets[1][i]
		va, err := a.check(b.seed)
		if err != nil {
			return err
		}
		vc, err := c.check(b.seed)
		if err != nil {
			return err
		}
		ma, mc := a.metrics(va), c.metrics(vc)
		for _, def := range endToEnd {
			sa, sc := ma[def.name], mc[def.name]
			gap := 0.0
			if sa.Median != 0 {
				gap = sc.Median/sa.Median - 1
			} else if sc.Median != 0 {
				gap = math.Inf(1)
			}
			verdict := "pass"
			switch {
			case math.Abs(gap) > def.bound:
				verdict, ok = "FAIL", false
			case sa.spread() > def.bound || sc.spread() > def.bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				a.w.name, def.name, def.unit, num(sa.Median), num(sc.Median),
				100*gap, 100*sa.spread(), 100*sc.spread(), 100*def.bound, verdict)
		}
		// Exact quantities: packet-hop counts and model digests.
		exact := "pass"
		if d := a.digest().diff(c.digest()); len(d) > 0 {
			exact, ok = fmt.Sprintf("FAIL %v", d), false
		}
		fmt.Fprintf(tw, "%s\tpkt_hops+digest\texact\t%d\t%d\t\t\t\t0%%\t%s\n",
			a.w.name, pktHops(a.ref.Counters), pktHops(c.ref.Counters), exact)
	}
	tw.Flush()
	if !ok {
		return errIncorrect
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
