package experiments

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"abm/internal/runner"
	"abm/internal/scenario"
	"abm/internal/units"
)

// preset is scenario.Preset at a seed, with the traffic duration cut to
// d when d > 0.
func preset(t testing.TB, scale string, seed int64, d units.Time) scenario.Scenario {
	t.Helper()
	sc, err := scenario.Preset(scale)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = seed
	if d > 0 {
		sc.Duration = scenario.Duration(d)
	}
	return sc
}

// run executes one scenario, failing the test on error.
func run(t testing.TB, sc scenario.Scenario) scenario.Result {
	t.Helper()
	res, _, err := scenario.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFigureScenariosGolden pins how every simulated figure compiles its
// cells at every scale: the ordered (job ID, seed, SHA-256 of the
// resolved scenario JSON) list of the figures' plan must match
// testdata/figure-scenarios.golden,
// captured from the figures as they were built before scenarios became
// the only run spec (testdata/capture-parent.sh). Nothing runs.
func TestFigureScenariosGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "figure-scenarios.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var got []string
	for _, scale := range []string{"small", "medium", "paper"} {
		plan, err := Figures{IDs: []string{"all"}, Base: preset(t, scale, 42, 0)}.Plan()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range plan.Specs {
			sc, ok := s.Config.(scenario.Scenario)
			if !ok {
				continue // fig5sim's burst-lab probes are not scenarios
			}
			resolved, err := sc.Resolve()
			if err != nil {
				t.Fatalf("%s %s: %v", scale, s.ID, err)
			}
			data, err := resolved.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%s\t%s\t%d\t%x", scale, s.ID, s.Seed, sha256.Sum256(data)))
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d figure cells, golden has %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("cell %d differs:\ngot  %s\nwant %s", i, got[i], want[i])
		}
	}
}

func TestScaleParsing(t *testing.T) {
	for scale, hosts := range map[string]int{"small": 16, "medium": 64, "paper": 256} {
		sc, err := scenario.Preset(scale)
		if err != nil {
			t.Fatalf("Preset(%q): %v", scale, err)
		}
		if n := sc.Fabric.Leaves * sc.Fabric.HostsPerLeaf; n != hosts {
			t.Fatalf("%s: %d hosts, want %d", scale, n, hosts)
		}
	}
	if _, err := scenario.Preset("huge"); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunBasicCell(t *testing.T) {
	res := run(t, cell(preset(t, "small", 1, 10*units.Millisecond), "DT", 0.3, "cubic", 0.3))
	s := res.Summary
	if s.Flows == 0 {
		t.Fatal("no flows generated")
	}
	if s.Flows-s.Unfinished == 0 {
		t.Fatal("no flows finished")
	}
	if s.P99IncastSlowdown < 1 {
		t.Fatalf("incast slowdown = %v, must be >= 1", s.P99IncastSlowdown)
	}
	if s.P99BufferFrac <= 0 {
		t.Fatal("no buffer occupancy observed")
	}
	if res.Events == 0 {
		t.Fatal("no events executed")
	}
}

func TestRunABMWithHeadroom(t *testing.T) {
	res := run(t, cell(preset(t, "small", 2, 10*units.Millisecond), "ABM", 0.3, "dctcp", 0.3))
	if res.Summary.Flows-res.Summary.Unfinished == 0 {
		t.Fatal("no flows finished under ABM")
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	sc := cell(preset(t, "small", 0, units.Millisecond), "DT", 0.1, "bogus", 0)
	if _, _, err := scenario.Run(sc); err == nil {
		t.Fatal("expected cc error")
	}
}

func TestRunRejectsUnknownBM(t *testing.T) {
	// Unknown policies used to panic out of the per-switch factory; name
	// validation now happens once, during scenario resolution.
	sc := cell(preset(t, "small", 0, units.Millisecond), "bogus", 0.1, "cubic", 0)
	if _, _, err := scenario.Run(sc); err == nil {
		t.Fatal("expected bm error")
	}
}

// mixedCell is Figure 8's mixed-protocol cell: Cubic and DCTCP
// background in priorities 0 and 1, θ-PowerTCP incast in priority 2.
func mixedCell(base scenario.Scenario) scenario.Scenario {
	sc := cell(base, "ABM", 0.4, "", 0.2)
	sc.Buffer.QueuesPerPort = 3
	sc.Workload.MixedCC = []scenario.CCAssignment{{CC: "cubic", Prio: 0}, {CC: "dctcp", Prio: 1}}
	sc.Workload.Incast.CC = "theta-powertcp"
	sc.Workload.Incast.Prio = 2
	return sc
}

func TestMixedCCPerPrioResults(t *testing.T) {
	res := run(t, mixedCell(preset(t, "small", 3, 10*units.Millisecond)))
	if len(res.PerPrioP99Short) != 3 {
		t.Fatalf("per-prio results = %v", res.PerPrioP99Short)
	}
}

// renderFigure runs one figure's plan on a pool and returns its TSV.
func renderFigure(t *testing.T, id string, base scenario.Scenario) string {
	t.Helper()
	figs := Figures{IDs: []string{id}, Base: base}
	plan, err := figs.Plan()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := (&runner.Pool{}).Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := figs.WriteTSVs(dir, recs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, id+".tsv"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestFig4Output(t *testing.T) {
	var buf bytes.Buffer
	fig4(&buf)
	out := buf.String()
	if !strings.Contains(out, "Figure 4") || strings.Count(out, "\n") < 40 {
		t.Fatalf("fig4 output too short:\n%s", out)
	}
}

func TestFig5Output(t *testing.T) {
	var buf bytes.Buffer
	fig5(&buf)
	if strings.Count(buf.String(), "\n") < 70 {
		t.Fatal("fig5 output too short")
	}
}

// TestFiguresUnknown: an unknown figure, no figure at all and an
// unpinned (zero) figure seed are rejected before anything runs.
func TestFiguresUnknown(t *testing.T) {
	base := preset(t, "small", 1, 0)
	for _, figs := range []Figures{
		{IDs: []string{"fig99"}, Base: base},
		{Base: base},
		{IDs: []string{"fig6"}, Base: preset(t, "small", 0, 0)},
	} {
		if _, err := figs.Plan(); err == nil {
			t.Errorf("%v at seed %d: expected error", figs.IDs, figs.Base.Seed)
		}
	}
}

// TestFigureRunnersSmoke renders the analytic figures through the
// figure plan: they have no cells and still write their tables.
func TestFigureRunnersSmoke(t *testing.T) {
	for _, id := range []string{"fig4", "fig5"} {
		plan, err := Figures{IDs: []string{id}, Base: preset(t, "small", 1, 0)}.Plan()
		if err != nil || len(plan.Specs) != 0 {
			t.Fatalf("%s: %d cells, %v", id, len(plan.Specs), err)
		}
		if renderFigure(t, id, preset(t, "small", 1, 0)) == "" {
			t.Fatalf("%s produced no output", id)
		}
	}
}

// TestFig8Runner exercises one full simulated figure end to end (the
// cheapest one: six cells on the small fabric).
func TestFig8Runner(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	out := renderFigure(t, "fig8", preset(t, "small", 1, 0))
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header comment + column header + 2 BMs x 3 loads.
	if len(lines) != 8 {
		t.Fatalf("fig8 rows = %d, want 8:\n%s", len(lines), out)
	}
	for _, line := range lines[2:] {
		if !strings.HasPrefix(line, "DT\t") && !strings.HasPrefix(line, "ABM\t") {
			t.Fatalf("unexpected row %q", line)
		}
	}
}
