package experiments

import (
	"fmt"
	"strings"
	"time"

	"abm/internal/obs"
	"abm/internal/runner"
	"abm/internal/scenario"
)

// Grid describes a cross-product sweep for cmd/sweep: a base scenario
// file and the Vary axes that mutate it by dotted field path, every
// combination replicated Reps times with per-replication seeds derived
// from the plan seed. It is the JSON schema of a plan file.
type Grid struct {
	// Name labels the sweep; it prefixes every job ID.
	Name string `json:"name"`
	// Seed is the plan seed replication seeds derive from. Default 1.
	Seed int64 `json:"seed"`
	// Reps is the number of seed replications per configuration.
	// Default 1.
	Reps int `json:"reps"`

	// Shards runs every job on the topology-sharded parallel engine
	// with that many shards (scenario.Scenario.Shards); 0 keeps the base
	// scenario's setting.
	Shards int `json:"shards,omitempty"`
	// TimeoutSec bounds each job's wall-clock seconds; 0 means none.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Obs enables telemetry on every job; with PerJob set the path
	// fields are directories holding one file per job.
	Obs obs.Options `json:"obs,omitempty"`

	// Scenario is the base scenario JSON file every job starts from.
	// Required.
	Scenario string `json:"scenario,omitempty"`
	// Vary are the sweep axes, crossed in order. Axis order is part of
	// the job-ID/seed contract.
	Vary []PathAxis `json:"vary,omitempty"`
}

// PathAxis is one sweep axis: a dotted scenario field path (see
// scenario.SetField) and the values it steps through.
type PathAxis struct {
	Path   string   `json:"path"`
	Values []string `json:"values"`
}

// Plan loads the base scenario file and expands the grid over it (see
// Expand).
func (g Grid) Plan() (*runner.Plan, error) {
	if g.Scenario == "" {
		return nil, fmt.Errorf("experiments: grid needs a base scenario file")
	}
	base, err := scenario.Load(g.Scenario)
	if err != nil {
		return nil, err
	}
	return g.Expand(base)
}

// Expand expands the Vary axes over the base scenario into a runner
// plan: one job per axis combination and replication, in declared axis
// order with the rightmost axis fastest, so job indexes — and therefore
// derived seeds — are stable across runs and worker counts. Every axis
// combination is validated up front (bad field paths or values fail the
// whole sweep before any job runs), and each job's record embeds the
// fully-resolved scenario it executed.
func (g Grid) Expand(base scenario.Scenario) (*runner.Plan, error) {
	if g.Name == "" {
		g.Name = "sweep"
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	if g.Reps <= 0 {
		g.Reps = 1
	}
	for _, axis := range g.Vary {
		if axis.Path == "" || len(axis.Values) == 0 {
			return nil, fmt.Errorf("experiments: vary axis %q needs a path and at least one value", axis.Path)
		}
	}
	timeout := time.Duration(g.TimeoutSec * float64(time.Second))
	plan := &runner.Plan{Name: g.Name, Seed: g.Seed}

	choice := make([]int, len(g.Vary))
	for {
		sc := base.Clone()
		var parts []string
		for i, axis := range g.Vary {
			value := axis.Values[choice[i]]
			if err := scenario.SetField(&sc, axis.Path, value); err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			parts = append(parts, fmt.Sprintf("%s=%s", axis.Path, value))
		}
		if g.Shards >= 1 {
			sc.Shards = g.Shards
		}
		group := strings.Join(parts, ",")
		if group == "" {
			group = "scenario"
		}
		for rep := 0; rep < g.Reps; rep++ {
			job := sc.Clone()
			id := fmt.Sprintf("%s/%04d-%s,rep=%d", g.Name, len(plan.Specs), group, rep)
			if g.Obs.Active() {
				job.Obs = g.Obs.ForJob(id)
			}
			plan.Add(runner.Spec{
				ID:         id,
				Experiment: g.Name,
				Group:      group,
				Timeout:    timeout,
				Config:     job,
				Run:        runScenario(job),
			})
		}
		// Advance the odometer; done when the leftmost axis wraps.
		i := len(choice) - 1
		for ; i >= 0; i-- {
			choice[i]++
			if choice[i] < len(g.Vary[i].Values) {
				break
			}
			choice[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return plan, nil
}
