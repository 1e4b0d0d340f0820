// Package abm is a pure-Go reproduction of "ABM: Active Buffer
// Management in Datacenters" (SIGCOMM 2022): a packet-level
// discrete-event simulator for shared-memory datacenter switches, the
// ABM buffer-sharing algorithm with every baseline the paper compares
// against (DT, Complete Sharing, Complete Partitioning, FAB, Cisco IB,
// and the control-plane ABM approximation), five congestion-control
// algorithms (Cubic, DCTCP, TIMELY, PowerTCP, θ-PowerTCP), the paper's
// workloads, and the fluid-model analysis from its appendix.
//
// The package exposes three levels of API:
//
//   - Scenario: describe one run declaratively (fabric + buffer +
//     buffer-management scheme + workloads), run it and obtain the
//     paper's metrics. The figures, sweeps and CLIs build the same
//     value.
//   - Simulation: build a scenario's fabric and drive flows manually.
//   - Analysis: closed-form burst tolerance and isolation bounds
//     (Theorems 1-3, Eqs. 6-11) without running any simulation.
package abm

import (
	"io"

	"abm/internal/analytic"
	"abm/internal/bm"
	"abm/internal/cc"
	"abm/internal/metrics"
	"abm/internal/scenario"
	"abm/internal/sim"
	"abm/internal/topo"
	"abm/internal/trace"
	"abm/internal/units"
)

// Re-exported quantity types. These are stable aliases of the internal
// representations so all package APIs interoperate.
type (
	// Time is simulated time in picoseconds.
	Time = units.Time
	// Rate is a data rate in bits per second.
	Rate = units.Rate
	// ByteCount is an amount of data in bytes.
	ByteCount = units.ByteCount
)

// Common constants re-exported for convenience.
const (
	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second

	Kilobyte = units.Kilobyte
	Megabyte = units.Megabyte

	GigabitPerSec = units.GigabitPerSec
)

// BMSchemes lists the available buffer-management policies.
func BMSchemes() []string { return bm.Names() }

// CCAlgorithms lists the available congestion-control algorithms.
func CCAlgorithms() []string { return cc.Names() }

// Summary carries the paper's headline metrics for one run.
type Summary = metrics.Summary

// Scenario is the declarative description of one run: fabric shape
// (including oversubscription and asymmetric link rates), buffer model,
// buffer-management and scheduler policy, workload mix, shard count,
// telemetry, duration and seed. It is the only run spec: the figures,
// the CLIs and the Simulation API all build one directly.
type Scenario = scenario.Scenario

// ScenarioResult is the outcome of a scenario run, embedding the
// fully-resolved spec it executed.
type ScenarioResult = scenario.Result

// LoadScenario reads a scenario spec from a JSON file. The result is
// unresolved; overrides may be applied before running.
func LoadScenario(path string) (Scenario, error) { return scenario.Load(path) }

// RunScenario resolves and executes one scenario on the engine its
// Shards field selects.
func RunScenario(s Scenario) (ScenarioResult, error) {
	res, _, err := scenario.Run(s)
	return res, err
}

// RunScenarioDetailed is RunScenario, additionally returning the
// metrics collector with every flow record.
func RunScenarioDetailed(s Scenario) (ScenarioResult, *metrics.Collector, error) {
	return scenario.Run(s)
}

// SetScenarioField assigns one scenario field by its dotted JSON-tag
// path (e.g. "switch.bm", "fabric.uplink_gbps"), parsing the value by
// the field's type — the mechanism sweep grids use for axes.
func SetScenarioField(s *Scenario, path, value string) error {
	return scenario.SetField(s, path, value)
}

// WriteFlowTrace dumps flow records as a TSV table.
func WriteFlowTrace(w io.Writer, flows []FlowRecord) error { return trace.WriteFlows(w, flows) }

// BurstScenario is the analytic Figure 5 setting: a steady-state buffer
// plus an arriving burst. Its methods evaluate DT's and ABM's burst
// tolerance in closed form.
type BurstScenario = analytic.BurstScenario

// PriorityLoad describes one priority's congestion for the steady-state
// formulas.
type PriorityLoad = analytic.PriorityLoad

// DTSteadyThreshold evaluates Eq. 6 of the paper.
func DTSteadyThreshold(b ByteCount, alpha float64, prios []PriorityLoad) ByteCount {
	return analytic.DTSteadyThreshold(b, alpha, prios)
}

// ABMMinGuarantee evaluates Theorem 1.
func ABMMinGuarantee(b ByteCount, alphaP, sumAlphas float64) ByteCount {
	return analytic.ABMMinGuarantee(b, alphaP, sumAlphas)
}

// ABMMaxAllocation evaluates Theorem 2.
func ABMMaxAllocation(b ByteCount, alphaP float64) ByteCount {
	return analytic.ABMMaxAllocation(b, alphaP)
}

// ABMDrainTimeBound evaluates Theorem 3.
func ABMDrainTimeBound(b ByteCount, alphaP float64, bandwidth Rate) Time {
	return analytic.ABMDrainTimeBound(b, alphaP, bandwidth)
}

// Simulation wraps a live fabric for custom scenarios: start flows by
// hand, then run the virtual clock. The paper's workloads run through
// Scenario.
type Simulation struct {
	sim *sim.Simulator
	net *topo.Network
	col *metrics.Collector
}

// NewSimulationFromScenario builds a fabric from a declarative scenario
// spec (its workload and duration fields are ignored — the caller
// drives traffic and the clock).
func NewSimulationFromScenario(sc Scenario) (*Simulation, error) {
	_, eng, net, _, err := scenario.BuildFabric(sc)
	if err != nil {
		return nil, err
	}
	return &Simulation{sim: eng, net: net, col: &metrics.Collector{}}, nil
}

// NumHosts returns the number of servers in the fabric.
func (s *Simulation) NumHosts() int { return s.net.NumHosts() }

// BaseRTT returns the fabric's longest-path propagation RTT.
func (s *Simulation) BaseRTT() Time { return s.net.BaseRTT() }

// Now returns the current simulated time.
func (s *Simulation) Now() Time { return s.sim.Now() }

// StartFlow launches one flow using the named congestion-control
// algorithm. onComplete (may be nil) fires when every byte is
// acknowledged.
func (s *Simulation) StartFlow(src, dst int, size ByteCount, prio uint8,
	ccName string, onComplete func(fct Time)) error {
	factory, err := cc.NewFactory(ccName)
	if err != nil {
		return err
	}
	start := s.sim.Now()
	rec := metrics.FlowRecord{
		Class: metrics.ClassOther,
		Prio:  prio,
		Size:  size,
		Start: start,
		Ideal: s.net.IdealFCT(src, dst, size),
	}
	s.col.AddFlow(rec)
	idx := len(s.col.Flows) - 1
	id := s.net.StartFlow(src, dst, size, prio, factory(), func(now Time) {
		s.col.Flows[idx].End = now
		s.col.Flows[idx].Finished = true
		if onComplete != nil {
			onComplete(now - start)
		}
	})
	s.col.Flows[idx].ID = id
	return nil
}

// Run advances the virtual clock to the given absolute time.
func (s *Simulation) Run(until Time) {
	s.sim.RunUntil(until)
}

// Drain stops the switch tickers and runs the calendar dry; call once at
// the end of a scenario.
func (s *Simulation) Drain() {
	s.net.Stop()
	s.sim.Run()
}

// Flows returns the records of all flows started so far.
func (s *Simulation) Flows() []metrics.FlowRecord { return s.col.Flows }

// Summarize computes the paper's headline metrics for the run.
func (s *Simulation) Summarize() Summary {
	return s.col.Summarize(s.net.Cfg.LinkRate)
}

// TotalDrops returns fabric-wide packet drops.
func (s *Simulation) TotalDrops() int64 { return s.net.TotalDrops() }

// FlowClass labels re-exported for filtering Flows().
const (
	ClassWebSearch = metrics.ClassWebSearch
	ClassIncast    = metrics.ClassIncast
	ClassOther     = metrics.ClassOther
)

// FlowRecord re-exported for Flows().
type FlowRecord = metrics.FlowRecord

// Percentile computes the p-th percentile of vals.
func Percentile(vals []float64, p float64) float64 { return metrics.Percentile(vals, p) }
