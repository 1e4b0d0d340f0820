// Package experiments regenerates the paper's evaluation (§4): each
// simulated figure is a list of labeled cells built from one scale
// preset (scenario.Preset), and Figures turns the cells of any set of
// figures into one flat runner plan and renders each figure's TSV table
// back from the plan's records. Grid is the cross-product form of the
// same thing: a base scenario file and dotted-path axes. Both run on
// internal/runner's pool, one job record per cell.
package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"abm/internal/obs"
	"abm/internal/runner"
	"abm/internal/scenario"
)

// Figures is the figure form of a run: the named figures' cells, all
// derived from Base, as one flat plan (Plan), and their TSV tables
// rendered from that plan's records (WriteTSVs).
type Figures struct {
	// IDs names the figures (entries of FigureIDs, or "all" for every
	// one), in output order.
	IDs []string
	// Base is the scale preset every simulated cell derives from, with
	// the figure seed set and optionally another fabric overlaid. Cells
	// pin this seed, so a figure's table is a pure function of it.
	Base scenario.Scenario
	// Shards, when >=1, runs every simulated cell on the parallel engine
	// with that many shards; 0 keeps the cells' own setting.
	Shards int
	// Obs enables telemetry on every simulated cell; with PerJob set the
	// path fields are directories holding one file per job, named by its
	// sanitized ID.
	Obs obs.Options
}

// figureIDs resolves IDs, expanding "all" and rejecting unknown names.
func (f Figures) figureIDs() ([]string, error) {
	var ids []string
	for _, id := range f.IDs {
		if id == "all" {
			ids = append(ids, FigureIDs...)
			continue
		}
		if _, ok := figures[id]; !ok {
			return nil, fmt.Errorf("experiments: unknown figure %q (known: %v)", id, FigureIDs)
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("experiments: no figure named (known: %v)", FigureIDs)
	}
	if f.Base.Seed == 0 {
		return nil, fmt.Errorf("experiments: figures pin their cells' seed; it must be nonzero")
	}
	return ids, nil
}

// Plan lists every cell of the named figures as one runner plan, figure
// by figure in IDs order. Analytic figures (fig4, fig5) have no cells.
func (f Figures) Plan() (*runner.Plan, error) {
	ids, err := f.figureIDs()
	if err != nil {
		return nil, err
	}
	plan := &runner.Plan{Name: "figures", Seed: f.Base.Seed}
	for _, id := range ids {
		if figures[id].analytic != nil {
			continue
		}
		for i, j := range figures[id].cells(f.Base) {
			plan.Add(f.spec(id, i, j))
		}
	}
	return plan, nil
}

// spec turns figure id's i-th cell into its runner job.
func (f Figures) spec(id string, i int, j job) runner.Spec {
	s := runner.Spec{ID: jobID(id, i, j.label), Experiment: id, Group: j.label}
	if p := j.probe; p != nil {
		// The burst lab seeds itself; the pinned 1 only keys the record.
		s.Seed, s.Config = 1, *p
		s.Run = func(context.Context, int64) (runner.Result, error) { return p.measure(), nil }
		return s
	}
	sc := j.sc
	if f.Shards >= 1 {
		sc.Shards = f.Shards
	}
	if f.Obs.Active() {
		sc.Obs = f.Obs.ForJob(s.ID)
	}
	s.Seed, s.Config, s.Run = sc.Seed, sc, runScenario(sc)
	return s
}

// WriteTSVs renders each named figure to <dir>/<id>.tsv from records —
// those Plan's jobs returned, in any order, served from a log or not. A
// figure with a cell that has no successful record is not written and
// its first such job is named in the returned error; the other figures
// are still written.
func (f Figures) WriteTSVs(dir string, records []runner.Record) error {
	ids, err := f.figureIDs()
	if err != nil {
		return err
	}
	byID := make(map[string]runner.Record, len(records))
	for _, rec := range records {
		byID[rec.ID] = rec
	}
	var errs []error
	for _, id := range ids {
		var buf bytes.Buffer
		if err := f.render(&buf, id, byID); err != nil {
			errs = append(errs, err)
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, id+".tsv"), buf.Bytes(), 0o644); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// render writes figure id's table. Each cell prints its head, if any;
// then a run of consecutive cells sharing a row prints as one line: the
// row's key columns followed by the figure's value columns for those
// cells' results.
func (f Figures) render(w io.Writer, id string, byID map[string]runner.Record) error {
	fig := figures[id]
	if fig.analytic != nil {
		fig.analytic(w)
		return nil
	}
	cells := fig.cells(f.Base)
	res := make([]runner.Result, len(cells))
	for i, j := range cells {
		jid := jobID(id, i, j.label)
		rec, ok := byID[jid]
		if !ok {
			return fmt.Errorf("experiments: %s: no record", jid)
		}
		if !rec.OK() {
			return fmt.Errorf("experiments: %s: %s (%s)", jid, rec.Error, rec.Status)
		}
		res[i] = *rec.Result
	}
	for i := 0; i < len(cells); {
		n := 1
		for i+n < len(cells) && cells[i+n].row == cells[i].row && cells[i+n].head == "" {
			n++
		}
		fmt.Fprintf(w, "%s%s\t%s\n", cells[i].head, cells[i].row, fig.values(res[i:i+n]))
		i += n
	}
	return nil
}

// job is one cell of a figure: the scenario it runs (for fig5sim, the
// burst-lab probe it measures instead), the label that ends its job ID
// and keys its record group, and the TSV row it renders into — the key
// columns, plus the table head printed before it when it opens a table.
type job struct {
	label, head, row string
	sc               scenario.Scenario
	probe            *burstProbe
}

// titled sets the head of a figure's table on its first cell.
func titled(head string, jobs []job) []job {
	jobs[0].head = head
	return jobs
}

// jobID names a figure's i-th cell in records and telemetry files.
// fig5sim's probe IDs carry a two-digit index.
func jobID(fig string, i int, label string) string {
	if fig == "fig5sim" {
		return fmt.Sprintf("%s/%02d-%s", fig, i, label)
	}
	return fmt.Sprintf("%s/%03d-%s", fig, i, label)
}

// runScenario is the job body figures and grids share: run the
// scenario at the job's seed and convert the result into the runner's
// record payload, the resolved spec embedded.
func runScenario(sc scenario.Scenario) func(context.Context, int64) (runner.Result, error) {
	return func(_ context.Context, seed int64) (runner.Result, error) {
		c := sc.Clone()
		c.Seed = seed
		res, _, err := scenario.Run(c)
		if err != nil {
			return runner.Result{}, err
		}
		out := runner.Result{
			Summary:          res.Summary,
			Events:           res.Events,
			Drops:            res.Drops,
			UnscheduledDrops: res.UnscheduledDrops,
			Counters:         res.Counters,
			Hists:            res.Hists,
			Scenario:         res.Scenario,
		}
		if len(res.PerPrioP99Short) > 0 {
			out.Extra = make(map[string]float64, len(res.PerPrioP99Short))
			for prio, v := range res.PerPrioP99Short {
				out.Extra[perPrioKey(prio)] = v
			}
		}
		return out, nil
	}
}

// perPrioKey names a per-priority p99 short-flow metric in a record's
// Extra map.
func perPrioKey(prio uint8) string { return fmt.Sprintf("p99_short_prio%d", prio) }
