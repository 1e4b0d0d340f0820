// Package scenario is the declarative layer of the simulator: one
// validated, JSON-serializable Scenario value describes everything a
// run needs — fabric shape (including oversubscription and asymmetric
// link rates), buffer model, buffer-management and scheduler policy,
// workload mix, shard count, telemetry, duration and seed. It is the
// only run spec: the abm root API, the figures in internal/experiments,
// the abmsim/figures/sweep CLIs and the examples all build a Scenario
// directly, and one builder constructs the fabric and workloads on the
// parallel engine at every shard count.
//
// A Scenario has exactly one defaults-resolution pass: Resolve returns
// a fully-explicit spec (goldens pin it) and is idempotent, so a
// resolved scenario embedded in a runner job record re-runs exactly.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"abm/internal/obs"
	"abm/internal/topo"
	"abm/internal/units"
)

// Duration is a simulated time span (picoseconds, like units.Time) with
// human-friendly JSON: it marshals as a Go duration string ("25ms")
// when representable at nanosecond resolution and as a raw picosecond
// number otherwise; it unmarshals either form. Both directions are
// exact, so specs round-trip without drifting the virtual clock.
type Duration units.Time

// Time converts to the simulator's time type.
func (d Duration) Time() units.Time { return units.Time(d) }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	if d%1000 == 0 {
		return json.Marshal(time.Duration(d / 1000).String())
	}
	return json.Marshal(int64(d))
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		td, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(td.Nanoseconds()) * Duration(units.Nanosecond)
		return nil
	}
	var ps int64
	if err := json.Unmarshal(data, &ps); err != nil {
		return err
	}
	*d = Duration(ps)
	return nil
}

// Scenario is the complete declarative description of one run.
type Scenario struct {
	// Name labels the scenario in job IDs and reports.
	Name string `json:"name,omitempty"`
	// Seed drives every random stream of the run (workload arrivals,
	// per-switch policy randomness, ...) deterministically.
	Seed int64 `json:"seed"`
	// Shards partitions the fabric: >= 1 runs min(Shards, Leaves)
	// shards with every tier link routed through an engine mailbox, and
	// output is identical at every such count. 0 means one shard with
	// direct tier links: the serial tie order, where a delivery pops in
	// its sender's push order rather than the barrier merge's, so it
	// differs from the sharded output wherever simultaneous events
	// interact (on a contended incast cell, in drops and tail slowdowns).
	Shards int `json:"shards,omitempty"`
	// Duration is how long the workload generators offer traffic; the
	// run then drains in-flight flows (bounded) before summarizing.
	Duration Duration `json:"duration"`

	Fabric   Fabric   `json:"fabric"`
	Buffer   Buffer   `json:"buffer"`
	Switch   Switch   `json:"switch"`
	Workload Workload `json:"workload"`

	// Hybrid configures the fluid/packet hybrid engine (internal/hybrid);
	// the zero value keeps the pure packet engine, bit-for-bit.
	Hybrid Hybrid `json:"hybrid,omitzero"`

	// Obs configures the run's telemetry (see internal/obs); the zero
	// value disables it.
	Obs obs.Options `json:"obs,omitempty"`
}

// Fabric is the fabric shape and its link speeds. Topology selects the
// shape constructor: "leafspine" (the default) is the two-tier Clos
// sized by Spines/Leaves/HostsPerLeaf; "fattree" is the three-tier
// k-ary fat tree sized by K alone.
type Fabric struct {
	// Topology is the shape family: "leafspine" or "fattree". Empty
	// resolves to leafspine.
	Topology string `json:"topology,omitempty"`
	// K is the fat-tree arity (even, >= 2): k pods of k/2 edge and k/2
	// aggregation switches under (k/2)^2 cores, k^3/4 hosts. Fattree
	// only; zero resolves to 4.
	K            int `json:"k,omitempty"`
	Spines       int `json:"spines,omitempty"`
	Leaves       int `json:"leaves,omitempty"`
	HostsPerLeaf int `json:"hosts_per_leaf,omitempty"`
	// LinkGbps is the host access rate and the uniform fabric rate.
	LinkGbps float64 `json:"link_gbps"`
	// UplinkGbps gives the switch<->switch tiers their own speed
	// (asymmetric fabrics: 10G hosts under 25G uplinks, or slower
	// uplinks for steeper oversubscription). Zero resolves to LinkGbps.
	UplinkGbps float64 `json:"uplink_gbps,omitempty"`
	// LinkDelay is the one-way propagation delay of every link.
	LinkDelay Duration `json:"link_delay"`
	// LinkFaults schedules link failures, recoveries, flaps and rate
	// degradations at fixed simulation times. Deterministic and
	// shard-count-invariant: each applies at a window barrier.
	LinkFaults []LinkFault `json:"link_faults,omitempty"`
}

// LinkFault is one scheduled fault on a named fabric link.
type LinkFault struct {
	// Link names the wire by its endpoint switches, either order:
	// "leaf0-spine1", or "edge2-agg1"/"agg1-core0" on fat trees.
	Link string `json:"link"`
	// At is when the fault begins (must be > 0).
	At Duration `json:"at"`
	// RecoverAt, when positive, restores the link at that time.
	RecoverAt Duration `json:"recover_at,omitempty"`
	// DegradeGbps, when positive, lowers the link to this rate instead
	// of taking it down (routing keeps using it).
	DegradeGbps float64 `json:"degrade_gbps,omitempty"`
	// Flaps repeats a down/up cycle: the link goes down at At+i*Period
	// and recovers half a Period later, for i in [0, Flaps). Requires
	// Period; mutually exclusive with RecoverAt and DegradeGbps.
	Flaps  int      `json:"flaps,omitempty"`
	Period Duration `json:"period,omitempty"`
}

// graph builds the fabric's shape. Zero dimensions fall back to the
// paper's 8x8x32 leaf–spine (resolved specs always have them filled).
func (f Fabric) graph() *topo.Graph {
	if f.Topology == "fattree" {
		k := f.K
		if k <= 0 {
			k = 4
		}
		return topo.FatTree(k)
	}
	sp, lv, hpl := f.Spines, f.Leaves, f.HostsPerLeaf
	if sp <= 0 {
		sp = defaultSpines
	}
	if lv <= 0 {
		lv = defaultLeaves
	}
	if hpl <= 0 {
		hpl = defaultHostsPerLeaf
	}
	return topo.LeafSpine(sp, lv, hpl)
}

// Fabric size limits. checkSize applies them to the dimensions alone,
// before the graph is built, so a hostile spec is an error instead of
// an allocation that exhausts memory.
const (
	// maxLinks caps switch-to-switch links: each is two switch ports
	// with their queues.
	maxLinks = 1 << 16
	// maxRouteSize caps the route tables: every switch keeps a next-hop
	// set per edge group, each a subset of its ports, so they hold at
	// most (switches + ports) x groups words. Resolve builds them once
	// to find the fabric's worst hop count.
	maxRouteSize = 1 << 24
	// maxRadix caps ports per switch: obs.Event.Port is an int16.
	maxRadix = math.MaxInt16
	// maxQueuesPerPort caps priorities: packet.Prio is a uint8.
	maxQueuesPerPort = math.MaxUint8 + 1
)

// checkSize rejects a defaulted fabric whose graph would exceed one of
// the limits above or topo.MaxHosts. The tests run in an order that
// keeps every product from overflowing: the radix test bounds each
// dimension, and the host and link tests bound the route-table one.
func (f Fabric) checkSize() error {
	var hosts, links, switches, groups int
	if f.Topology == "fattree" {
		k := f.K
		if k > maxRadix {
			return fmt.Errorf("scenario: fat-tree k %d exceeds the %d-port switch limit", k, maxRadix)
		}
		hosts, links, switches, groups = k*k*k/4, k*k*k/2, 5*k*k/4, k*k/2
	} else {
		// Leaves have hosts_per_leaf + spines ports, spines one per leaf.
		if f.Spines > maxRadix-f.HostsPerLeaf || f.Leaves > maxRadix {
			return fmt.Errorf("scenario: leaf–spine %dx%dx%d needs switches over the %d-port limit",
				f.Spines, f.Leaves, f.HostsPerLeaf, maxRadix)
		}
		hosts, links = f.Leaves*f.HostsPerLeaf, f.Spines*f.Leaves
		switches, groups = f.Spines+f.Leaves, f.Leaves
	}
	switch {
	case hosts > topo.MaxHosts:
		return fmt.Errorf("scenario: fabric has %d hosts; at most %d can be numbered", hosts, topo.MaxHosts)
	case links > maxLinks:
		return fmt.Errorf("scenario: fabric has %d switch-to-switch links; at most %d", links, maxLinks)
	case (switches+hosts+2*links)*groups > maxRouteSize:
		return fmt.Errorf("scenario: fabric's route tables would need %d words ((switches + ports) x %d edge groups); at most %d",
			(switches+hosts+2*links)*groups, groups, maxRouteSize)
	}
	return nil
}

// radix returns the switch port count the buffer model is sized
// against: hosts + uplinks on a leaf (leaf–spine) or k (fat tree).
// Resolved fabrics only.
func (f Fabric) radix() int {
	if f.Topology == "fattree" {
		return f.K
	}
	return f.HostsPerLeaf + f.Spines
}

// TierOversubscription returns the oversubscription ratio at each
// non-top switch tier, computed from the fabric graph: capacity
// entering tier-t switches from below over capacity leaving them
// upward. Index 0 is the edge (leaf) tier.
func (f Fabric) TierOversubscription() []float64 {
	return f.graph().TierOversubscription(f.LinkGbps, f.UplinkGbps)
}

// Oversubscription returns the edge-tier oversubscription ratio: host
// capacity per edge switch over its uplink capacity.
func (f Fabric) Oversubscription() float64 {
	return f.TierOversubscription()[0]
}

// Buffer is the shared-memory model of every switch.
type Buffer struct {
	// KBPerPortPerGbps sizes the chip (§4.3): Trident2 9.6, Tomahawk
	// 5.12, Tofino 3.44.
	KBPerPortPerGbps float64 `json:"kb_per_port_per_gbps"`
	// HeadroomFrac reserves this fraction of the chip for first-RTT
	// (unscheduled) packets. nil resolves to the scheme default — 1/8
	// for ABM, IB and ABM-approx, 0 otherwise; an explicit 0 disables.
	HeadroomFrac  *float64 `json:"headroom_frac,omitempty"`
	QueuesPerPort int      `json:"queues_per_port"`
	// Alphas are the per-priority DT/ABM parameters. Resolve expands to
	// one entry per queue: a single entry replicates across all queues,
	// missing or non-positive entries become 0.5.
	Alphas []float64 `json:"alphas,omitempty"`
	// AlphaUnscheduled is the headroom-admission alpha (§3.3, paper 64).
	AlphaUnscheduled float64 `json:"alpha_unscheduled"`
}

// Switch selects the per-switch policies: buffer management, AQM
// behavior and the egress scheduler.
type Switch struct {
	// BM names the buffer-management scheme (bm.Names).
	BM string `json:"bm"`
	// UpdateInterval is ABM-approx's control-plane period.
	UpdateInterval Duration `json:"update_interval,omitempty"`
	// CongestedFactor marks a queue congested above this fraction of
	// its threshold (paper 0.9).
	CongestedFactor float64 `json:"congested_factor"`
	// DrainRateMeasured uses the measured mu/b estimator instead of the
	// scheduler-share one (DESIGN.md §8 ablation).
	DrainRateMeasured bool `json:"drain_rate_measured,omitempty"`
	// StatsInterval is the n_p / mu refresh period; zero resolves to
	// one base RTT (8 link delays on the two-tier fabric).
	StatsInterval Duration `json:"stats_interval"`
	// Scheduler is the per-port egress scheduler: rr, dwrr or strict.
	Scheduler string `json:"scheduler"`
	// Trimming enables the cut-payload AQM. Incompatible with ECN-based
	// congestion control (DCTCP/DCQCN), which installs its own AQM.
	Trimming bool `json:"trimming,omitempty"`
	// EnableINT stamps per-hop telemetry onto data packets. Resolve
	// also forces it on when any configured CC requires it (PowerTCP,
	// HPCC).
	EnableINT bool `json:"enable_int,omitempty"`
}

// Workload is the traffic mix.
type Workload struct {
	// Load is the web-search background load as a fraction of bisection
	// bandwidth; 0 disables the background workload.
	Load float64 `json:"load"`
	// Background selects the flow-size distribution: websearch or
	// datamining.
	Background string `json:"background"`
	// CC names the congestion-control algorithm (cc.Names).
	CC string `json:"cc"`
	// Prio is the priority (queue) background flows use.
	Prio uint8 `json:"prio"`
	// RandomPrio spreads flows uniformly across the queues instead.
	RandomPrio bool `json:"random_prio,omitempty"`
	// MixedCC assigns background flows round-robin to these CC/priority
	// pairs (the Fig. 8 mixed-protocol setting); overrides CC/Prio.
	MixedCC []CCAssignment `json:"mixed_cc,omitempty"`

	Incast Incast `json:"incast"`

	// LongFlows adds the steady long-flow permutation workload; the zero
	// value disables it.
	LongFlows LongFlows `json:"long_flows,omitzero"`
}

// CCAssignment binds a congestion-control algorithm to a priority.
type CCAssignment struct {
	CC   string `json:"cc"`
	Prio uint8  `json:"prio"`
}

// LongFlows is the steady long-flow workload: host i opens one flow to
// host (i+Stride) mod N at time i*Stagger — a full permutation whose
// flows all converge to steady state, the hybrid engine's showcase.
// FlowKB 0 disables.
type LongFlows struct {
	// FlowKB is each flow's size in kilobytes.
	FlowKB float64 `json:"flow_kb,omitempty"`
	// CC defaults to the background workload's algorithm.
	CC string `json:"cc,omitempty"`
	// Prio is the priority long flows use.
	Prio uint8 `json:"prio,omitempty"`
	// Stride is the source-to-destination offset of the permutation;
	// zero resolves to HostsPerLeaf, so every flow crosses the fabric.
	Stride int `json:"stride,omitempty"`
	// Count caps how many source hosts open a flow (hosts 0..Count-1);
	// zero means every host. Count <= N/2 with Stride >= Count gives a
	// half-permutation with dedicated senders and receivers, so no NIC
	// carries both a flow's data and another flow's ACKs.
	Count int `json:"count,omitempty"`
	// Stagger is the launch gap between successive source hosts; zero
	// resolves to 1us.
	Stagger Duration `json:"stagger,omitempty"`
}

// Hybrid configures the fluid/packet hybrid engine; see internal/hybrid
// for the mode-transition rules these knobs parameterize.
type Hybrid struct {
	// Enabled turns the hybrid engine on. Shards 0 only (the whole
	// fabric on one shard): Resolve rejects Enabled with Shards >= 1.
	Enabled bool `json:"enabled,omitempty"`
	// GuardBandFrac is the fraction of a queue's admission threshold at
	// which fluid flows return to packet mode; zero resolves to 0.5.
	GuardBandFrac float64 `json:"guard_band_frac,omitempty"`
	// SteadyRTTs is how many smoothed RTTs a flow must go without a
	// congestion signal before demotion; zero resolves to 8.
	SteadyRTTs int `json:"steady_rtts,omitempty"`
	// EpochDt is the fluid integration epoch; zero resolves to one base
	// RTT (8 link delays).
	EpochDt Duration `json:"epoch_dt,omitempty"`
}

// Incast is the query/response burst workload; RequestFrac 0 disables.
type Incast struct {
	// RequestFrac sizes each request as a fraction of the chip buffer.
	RequestFrac float64 `json:"request_frac"`
	// Fanout is the fan-in degree of each query.
	Fanout int `json:"fanout"`
	// Load is the fraction of aggregate bandwidth offered as incast.
	Load float64 `json:"load"`
	// CC defaults to the background workload's algorithm.
	CC string `json:"cc"`
	// Prio is the priority incast responses use.
	Prio uint8 `json:"prio"`
}

// Clone returns a deep copy, so callers can mutate axes (SetField) off
// one base scenario without aliasing slices or the headroom pointer.
func (s Scenario) Clone() Scenario {
	if s.Buffer.HeadroomFrac != nil {
		v := *s.Buffer.HeadroomFrac
		s.Buffer.HeadroomFrac = &v
	}
	if s.Buffer.Alphas != nil {
		s.Buffer.Alphas = append([]float64(nil), s.Buffer.Alphas...)
	}
	if s.Workload.MixedCC != nil {
		s.Workload.MixedCC = append([]CCAssignment(nil), s.Workload.MixedCC...)
	}
	if s.Fabric.LinkFaults != nil {
		s.Fabric.LinkFaults = append([]LinkFault(nil), s.Fabric.LinkFaults...)
	}
	return s
}

// Parse decodes a scenario from JSON, rejecting unknown fields so typos
// in hand-written spec files fail loudly instead of silently defaulting.
func Parse(data []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	return s, nil
}

// Load reads and decodes a scenario file. The result is not resolved;
// callers apply overrides first, then Resolve.
func Load(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	s, err := Parse(data)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Preset returns the base scenario of a fabric scale: the leaf–spine
// dimensions and traffic duration the figures and `abmsim -scale` start
// from, every other field unset. The paper runs 8 spines x 8 leaves x
// 32 hosts for 200ms ("paper"); "medium" (4x4x16, 50ms) and "small"
// (2x2x8, 25ms) keep its 4:1 oversubscription and qualitative results
// at a fraction of the event count.
func Preset(scale string) (Scenario, error) {
	var spines, leaves, hostsPerLeaf int
	var duration units.Time
	switch scale {
	case "small":
		spines, leaves, hostsPerLeaf, duration = 2, 2, 8, 25*units.Millisecond
	case "medium":
		spines, leaves, hostsPerLeaf, duration = 4, 4, 16, 50*units.Millisecond
	case "paper":
		spines, leaves, hostsPerLeaf, duration = 8, 8, 32, 200*units.Millisecond
	default:
		return Scenario{}, fmt.Errorf("scenario: unknown scale %q (known: small, medium, paper)", scale)
	}
	return Scenario{
		Duration: Duration(duration),
		Fabric:   Fabric{Spines: spines, Leaves: leaves, HostsPerLeaf: hostsPerLeaf},
	}, nil
}

// Marshal renders the scenario as indented JSON with a trailing
// newline — the committed-file and job-record format.
func (s Scenario) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Save writes the scenario as indented JSON.
func (s Scenario) Save(path string) error {
	data, err := s.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
