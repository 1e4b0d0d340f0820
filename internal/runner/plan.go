package runner

import (
	"fmt"

	"abm/internal/randutil"
)

// Plan is an ordered list of jobs plus the base seed their per-job
// seeds derive from. The expansion order defines each job's index, and
// the index alone defines its seed, so a plan's results are independent
// of how many workers execute it.
type Plan struct {
	// Name labels the sweep (used in progress output and store records).
	Name string
	// Seed is the base seed for per-job seed derivation.
	Seed int64
	// Specs are the jobs, in expansion order.
	Specs []Spec
}

// Add appends a job, assigning a positional ID if the spec has none.
func (p *Plan) Add(s Spec) {
	if s.ID == "" {
		s.ID = fmt.Sprintf("%s/%04d", p.Name, len(p.Specs))
	}
	p.Specs = append(p.Specs, s)
}

// SeedFor derives the simulation seed for the job at the given index:
// the index-th output of a SplitMix64 stream seeded with the plan seed.
func (p *Plan) SeedFor(index int) int64 {
	return randutil.DeriveSeed(p.Seed, index)
}

// SeedOf resolves the effective seed of job i: an explicit spec seed
// wins, otherwise the derived one (SeedFor). It is the seed the job
// runs with, and a logged record is reused on resume only when it was
// produced at this seed.
func (p *Plan) SeedOf(i int) int64 {
	if s := p.Specs[i].Seed; s != 0 {
		return s
	}
	return p.SeedFor(i)
}

// Validate checks that every job is runnable and IDs are unique.
func (p *Plan) Validate() error {
	seen := make(map[string]int, len(p.Specs))
	for i, s := range p.Specs {
		if s.Run == nil {
			return fmt.Errorf("runner: job %d (%s) has no Run function", i, s.ID)
		}
		if j, dup := seen[s.ID]; dup {
			return fmt.Errorf("runner: duplicate job ID %q at indexes %d and %d", s.ID, j, i)
		}
		seen[s.ID] = i
	}
	return nil
}
