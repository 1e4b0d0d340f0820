// Package topo builds simulated fabrics from graph shapes: the paper's
// leaf–spine evaluation topology (§4.1) and the three-tier k-ary
// fat-tree, with ECMP routing tables computed from the graph, hosts
// attached to edge switches, and optional link failure injection.
// Default dimensions follow the paper (8 spines, 8 leaves, 32 hosts per
// leaf, 10 Gb/s, 10us per link); the experiment harness scales them
// down for CI-sized runs.
package topo

import (
	"fmt"
	"math/rand"

	"abm/internal/aqm"
	"abm/internal/bm"
	"abm/internal/cc"
	"abm/internal/device"
	"abm/internal/host"
	"abm/internal/obs"
	"abm/internal/packet"
	"abm/internal/randutil"
	"abm/internal/sim"
	"abm/internal/units"
)

// Config describes a fabric: a shape (an explicit Graph, or the default
// leaf–spine built from the dimension fields) plus the device-level
// parameters shared by every switch.
type Config struct {
	// Topo is the fabric shape. nil builds a leaf–spine graph from the
	// three dimension fields below; an explicit graph (e.g. FatTree(k))
	// makes them irrelevant.
	Topo *Graph

	NumSpines    int
	NumLeaves    int
	HostsPerLeaf int

	LinkRate  units.Rate
	LinkDelay units.Time

	// UplinkRate, when positive and different from LinkRate, gives the
	// switch<->switch tiers their own link speed (mixed-rate fabrics,
	// e.g. 10G hosts under 25G uplinks). Zero keeps the uniform
	// LinkRate. Host access links always run at LinkRate.
	UplinkRate units.Rate

	QueuesPerPort int

	BufferSize units.ByteCount // shared buffer per switch
	Headroom   units.ByteCount

	// BMFactory builds one buffer-management policy per switch; stateful
	// policies (FAB, IB, ABM-approx) must not be shared across devices.
	BMFactory  func() bm.Policy
	AQMFactory aqm.Factory

	Alphas           []float64
	AlphaUnscheduled float64
	CongestedFactor  float64
	StatsInterval    units.Time // 0 selects one base RTT (§4.1)
	DrainRate        device.DrainRateMode
	NewScheduler     func() device.Scheduler

	EnableINT bool

	MSS    units.ByteCount
	MinRTO units.Time

	// Obs is the run's telemetry session; nil disables telemetry. Each
	// switch and host receives the sink of its shard (the session must be
	// created with the partition's shard count; serial mode uses shard 0).
	Obs *obs.Session
}

func (c *Config) fillDefaults() {
	if c.Topo == nil {
		if c.NumSpines <= 0 {
			c.NumSpines = 8
		}
		if c.NumLeaves <= 0 {
			c.NumLeaves = 8
		}
		if c.HostsPerLeaf <= 0 {
			c.HostsPerLeaf = 32
		}
		c.Topo = LeafSpine(c.NumSpines, c.NumLeaves, c.HostsPerLeaf)
	}
	if c.LinkRate <= 0 {
		c.LinkRate = 10 * units.GigabitPerSec
	}
	if c.LinkDelay <= 0 {
		c.LinkDelay = 10 * units.Microsecond
	}
	if c.QueuesPerPort <= 0 {
		c.QueuesPerPort = 1
	}
	if c.BufferSize <= 0 {
		// Trident2: 9.6 KB per port per Gb/s (§4.1), sized by the
		// fabric's largest radix so all switches share one config.
		ports := c.Topo.MaxPorts()
		c.BufferSize = BufferFor(9.6, ports, c.LinkRate)
	}
	if c.BMFactory == nil {
		c.BMFactory = func() bm.Policy { return bm.DT{} }
	}
	if c.MSS <= 0 {
		c.MSS = 1440
	}
	if c.MinRTO <= 0 {
		c.MinRTO = 10 * units.Millisecond
	}
	if c.StatsInterval <= 0 {
		c.StatsInterval = 8 * c.LinkDelay // one base RTT on the two-tier fabric
	}
}

// Graph returns the fabric shape the config will build, constructing
// the default leaf–spine graph (and filling the other defaults) on
// first use. The run layer uses it to derive partitions and to resolve
// fault link names before the network exists.
func (c *Config) Graph() *Graph {
	c.fillDefaults()
	return c.Topo
}

// Uplink returns the switch<->switch tier rate: UplinkRate when set,
// the uniform LinkRate otherwise. Workload generators define bisection
// capacity against it.
func (c Config) Uplink() units.Rate {
	if c.UplinkRate > 0 {
		return c.UplinkRate
	}
	return c.LinkRate
}

// BufferFor computes a switch buffer from a KB-per-port-per-Gbps spec,
// the sizing the paper sweeps in §4.3 (Trident2 9.6, Tomahawk 5.12,
// Tofino 3.44, ...).
func BufferFor(kbPerPortPerGbps float64, ports int, rate units.Rate) units.ByteCount {
	return units.ByteCount(kbPerPortPerGbps * 1024 * float64(ports) * rate.Gbps())
}

// Partition assigns every switch (and, implicitly, every host: a host
// lives with its edge switch) to a shard of the parallel engine.
type Partition struct {
	Shards      int
	SwitchShard []int // per graph switch index
}

// MakePartition builds the standard partition for any shape: edge
// switches in balanced contiguous blocks (hosts follow their edge
// switch, so rack-local traffic stays shard-local), higher tiers
// round-robin by tier-local index so every shard owns a share of each
// tier. Shards is clamped to [1, edge-switch count] — beyond one shard
// per edge switch there is nothing left to split.
func MakePartition(g *Graph, shards int) Partition {
	numEdge := g.NumGroups()
	if shards < 1 {
		shards = 1
	}
	if shards > numEdge {
		shards = numEdge
	}
	p := Partition{Shards: shards, SwitchShard: make([]int, g.NumSwitches())}
	base := 0
	for t := 0; t < g.Tiers; t++ {
		for i := 0; i < g.TierCount[t]; i++ {
			if t == 0 {
				p.SwitchShard[base+i] = i * shards / numEdge
			} else {
				p.SwitchShard[base+i] = i % shards
			}
		}
		base += g.TierCount[t]
	}
	return p
}

// Network is a built fabric whose tier links are direct on one
// simulator (Sim) or routed through engine mailboxes (Par); exactly one
// is set.
type Network struct {
	Sim  *sim.Simulator // direct tier links; nil when Par is set
	Par  *sim.Parallel  // mailbox-routed tier links; nil when Sim is set
	Part Partition
	Cfg  Config
	G    *Graph

	// Leaves holds the edge tier, Spines every higher tier, both in
	// graph order (fat-tree "Spines" are the agg then core switches —
	// the names keep the leaf–spine call sites readable).
	Spines []*device.Switch
	Leaves []*device.Switch
	Hosts  []*host.Host

	switches []*device.Switch // all switches, graph order
	swSim    []*sim.Simulator // per switch: the simulator it schedules on

	rt        *routeTables
	linkUp    []bool
	linkRates [][2]units.Rate // built (lo, hi) port rates per link, for restore

	baseRTT   units.Time
	worstHops int

	nextFlow uint64

	// OnFlowStart, when set, observes every flow launch just before its
	// first packet is emitted (hybrid engine: a new burst at a shared
	// queue promotes fluid flows back to packet mode before the burst's
	// packets can race them). It runs on the source host's shard, so
	// only a fabric on one simulator (Sim set) may install it.
	OnFlowStart func(id uint64, src, dst int, size units.ByteCount, prio uint8)
}

// NodeName renders a node ID as a human-readable label ("host3",
// "leaf0", "spine2", "core1") following the fixed tiered NodeID layout.
// It is shape-blind (tier 0 is always "leaf", tier 2 "core"); prefer
// Network.NodeName, which uses the built graph's own tier labels.
func NodeName(id packet.NodeID) string {
	switch {
	case id >= coreIDBase:
		return fmt.Sprintf("core%d", int(id)-coreIDBase)
	case id >= spineIDBase:
		return fmt.Sprintf("spine%d", int(id)-spineIDBase)
	case id >= leafIDBase:
		return fmt.Sprintf("leaf%d", int(id)-leafIDBase)
	default:
		return fmt.Sprintf("host%d", int(id))
	}
}

// NodeName renders a node ID with the fabric's own tier labels
// ("edge0"/"agg1"/"core2" on a fat-tree, "leaf0"/"spine1" on
// leaf–spine). Telemetry exporters use it to name trace tracks and TSV
// rows.
func (n *Network) NodeName(id packet.NodeID) string { return n.G.NodeNameOf(id) }

// NewNetwork builds and wires the fabric on a single simulator with
// direct tier links.
func NewNetwork(s *sim.Simulator, cfg Config) *Network {
	n := &Network{Sim: s}
	n.build(cfg, Partition{}, s.Seed())
	return n
}

// NewShardedNetwork builds the same fabric across the shards of a
// parallel engine: each switch (and each host, via its edge switch)
// schedules on its shard's simulator, and every switch<->switch link
// routes through an engine mailbox — including same-shard tier links,
// so the barrier merge order is a property of the topology alone and
// the run is identical at any shard count.
//
// A zero partition (Shards == 0) instead builds the whole fabric on
// shard 0 of a one-shard engine with direct tier links: the serial tie
// order. Switch randomness derives from the engine's base seed either
// way.
func NewShardedNetwork(p *sim.Parallel, cfg Config, part Partition) *Network {
	n := &Network{Par: p}
	if part.Shards == 0 {
		n = &Network{Sim: p.Shard(0)}
	} else if part.Shards != p.NumShards() {
		panic(fmt.Sprintf("topo: partition has %d shards, engine has %d", part.Shards, p.NumShards()))
	}
	n.build(cfg, part, p.Seed())
	return n
}

// switchRNG returns the constructor of the switch's private random
// stream, derived from the base seed and its node ID — the same stream
// in serial and sharded mode, regardless of partition or event
// interleaving. The switch calls it on its first draw.
func switchRNG(baseSeed int64, id int) func() *rand.Rand {
	return func() *rand.Rand { return rand.New(rand.NewSource(randutil.DeriveSeed(baseSeed, id))) }
}

// tierLink creates the link from switch from to switch to (graph
// indices): direct on one simulator, else mailbox-routed.
// Mailboxes register in call order, which build keeps
// partition-invariant (the canonical Graph.Links order).
func (n *Network) tierLink(from, to int) *device.Link {
	src, dst := n.swSim[from], n.switches[to]
	if n.Par == nil {
		return device.NewLink(src, n.Cfg.LinkDelay, dst)
	}
	box := n.Par.NewMailbox(n.Part.SwitchShard[from], n.Part.SwitchShard[to], n.Cfg.LinkDelay)
	return device.NewLinkVia(src, n.Cfg.LinkDelay, dst, box)
}

// build places the switches on the partition's shards (all on n.Sim
// for a zero partition), constructs them in graph order, wires the
// tiers along the canonical link list, computes routing tables and hop
// counts from the graph, and attaches hosts.
func (n *Network) build(cfg Config, part Partition, baseSeed int64) {
	cfg.fillDefaults()
	g := cfg.Topo
	if part.Shards == 0 {
		part = MakePartition(g, 1)
	} else if len(part.SwitchShard) != g.NumSwitches() {
		panic(fmt.Sprintf("topo: partition covers %d switches, fabric has %d",
			len(part.SwitchShard), g.NumSwitches()))
	}
	n.Cfg, n.G, n.Part = cfg, g, part
	n.swSim = make([]*sim.Simulator, g.NumSwitches())
	for i, sh := range part.SwitchShard {
		n.swSim[i] = n.Sim
		if n.Par != nil {
			n.swSim[i] = n.Par.Shard(sh)
		}
	}
	mmuFor := func() device.MMUConfig {
		return device.MMUConfig{
			BufferSize:       cfg.BufferSize,
			Headroom:         cfg.Headroom,
			Alphas:           cfg.Alphas,
			AlphaUnscheduled: cfg.AlphaUnscheduled,
			BM:               cfg.BMFactory(),
			AQMFactory:       cfg.AQMFactory,
			CongestedFactor:  cfg.CongestedFactor,
			StatsInterval:    cfg.StatsInterval,
			DrainRate:        cfg.DrainRate,
		}
	}

	// Mixed-rate fabrics: every switch<->switch port runs at UplinkRate,
	// host-facing ports stay at LinkRate. Uniform fabrics (UplinkRate
	// zero or equal) take the single-rate path untouched.
	mixed := cfg.UplinkRate > 0 && cfg.UplinkRate != cfg.LinkRate

	// The tables exist (empty) before the switches so each router can
	// capture its own; they are filled once the links are wired.
	n.rt = newRouteTables(g)

	n.switches = make([]*device.Switch, g.NumSwitches())
	for i := range n.switches {
		var portRates []units.Rate
		if mixed {
			portRates = make([]units.Rate, g.NumPorts(i))
			for p := range portRates {
				if g.Peer(i, p).ToHost {
					portRates[p] = cfg.LinkRate
				} else {
					portRates[p] = cfg.UplinkRate
				}
			}
		}
		sw := device.NewSwitch(n.swSim[i], device.SwitchConfig{
			ID:            g.SwitchID(i),
			NumPorts:      g.NumPorts(i),
			QueuesPerPort: cfg.QueuesPerPort,
			PortRate:      cfg.LinkRate,
			PortRates:     portRates,
			MSS:           cfg.MSS,
			MMU:           mmuFor(),
			NewScheduler:  cfg.NewScheduler,
			EnableINT:     cfg.EnableINT,
			RNG:           switchRNG(baseSeed, int(g.SwitchID(i))),
			Obs:           cfg.Obs.ShardSink(n.Part.SwitchShard[i]),
		})
		sw.SetRouter(n.tableRouter(i))
		n.switches[i] = sw
		if g.TierOf(i) == 0 {
			n.Leaves = append(n.Leaves, sw)
		} else {
			n.Spines = append(n.Spines, sw)
		}
	}

	// Wire every switch<->switch link in canonical order: the lower-tier
	// egress registers its mailbox first, then the upper-tier one — for
	// leaf–spine this is exactly the historical l x sp double loop.
	n.linkUp = make([]bool, len(g.Links))
	n.linkRates = make([][2]units.Rate, len(g.Links))
	for li := range g.Links {
		lk := &g.Links[li]
		lo, hi := n.switches[lk.Lo], n.switches[lk.Hi]
		lo.ConnectPort(lk.LoPort, n.tierLink(lk.Lo, lk.Hi))
		hi.ConnectPort(lk.HiPort, n.tierLink(lk.Hi, lk.Lo))
		n.linkUp[li] = true
		n.linkRates[li] = [2]units.Rate{lo.Port(lk.LoPort).Rate(), hi.Port(lk.HiPort).Rate()}
	}

	// Routing tables and hop counts come from the graph, not from probe
	// walks: one BFS per destination edge group yields the ECMP next-hop
	// sets and the pairwise group distances in one pass.
	n.rt.recompute(g, n.linkUp)
	n.worstHops = 2 // host up to the edge switch and back down
	if d := n.rt.worstGroupDist(); d > 0 {
		n.worstHops = 2 + d
	}
	n.baseRTT = units.Time(2*n.worstHops) * cfg.LinkDelay

	numHosts := g.NumHosts()
	for h := 0; h < numHosts; h++ {
		e := g.GroupOfHost(h)
		edge := n.switches[e]
		s := n.swSim[e]
		hostPort := h % g.HostsPerEdge
		hs := host.New(s, host.Config{
			ID:      packet.NodeID(h),
			Rate:    cfg.LinkRate,
			BaseRTT: n.baseRTT,
			MSS:     cfg.MSS,
			MinRTO:  cfg.MinRTO,
			Obs:     cfg.Obs.ShardSink(n.Part.SwitchShard[e]),
		})
		hs.Connect(device.NewLink(s, cfg.LinkDelay, edge))
		edge.ConnectPort(hostPort, device.NewLink(s, cfg.LinkDelay, hs))
		n.Hosts = append(n.Hosts, hs)
	}
}

// tableRouter adapts switch i's forwarding table to the device router
// interface. The closure holds the table itself, which ApplyLinkEvent
// recomputes in place, so a link failure applies to the next routed
// packet with no rebuild and no per-packet indirection.
func (n *Network) tableRouter(i int) device.Router {
	t := &n.rt.tables[i]
	return func(_ *device.Switch, pkt *packet.Packet) int { return t.route(pkt) }
}

// NumHosts returns the host count.
func (n *Network) NumHosts() int { return len(n.Hosts) }

// GroupOf returns the edge group (rack) index of a host index.
func (n *Network) GroupOf(hostIdx int) int { return n.G.GroupOfHost(hostIdx) }

// LeafOf is GroupOf under its historical leaf–spine name.
func (n *Network) LeafOf(hostIdx int) int { return n.GroupOf(hostIdx) }

// HostsPerGroup returns the uniform host count per edge group.
func (n *Network) HostsPerGroup() int { return n.G.HostsPerEdge }

// BisectionBits returns the fabric's bisection capacity in bits/s: the
// aggregate rate of every edge-switch uplink, the denominator workload
// load fractions are defined against. On leaf–spine this is
// leaves x spines x uplink rate.
func (n *Network) BisectionBits() units.Rate {
	var total units.Rate
	for li := range n.G.Links {
		if n.G.TierOf(n.G.Links[li].Lo) == 0 {
			total += n.linkRates[li][0]
		}
	}
	return total
}

// BaseRTT returns the propagation round-trip of the longest path,
// derived from the routing tables' worst pairwise hop count (eight link
// traversals on the paper's two-tier fabric, twelve on a fat-tree).
func (n *Network) BaseRTT() units.Time { return n.baseRTT }

// Hops returns the one-way hop-link count between two hosts on the
// routed path: the two host access links plus the switch-to-switch
// distance between their edge groups.
func (n *Network) Hops(src, dst int) int {
	a, b := n.GroupOf(src), n.GroupOf(dst)
	if a == b {
		return 2
	}
	return 2 + int(n.rt.groupDist[b][a])
}

// SimOfHost returns the simulator host h's events must schedule on: its
// edge switch's (Sim when the fabric is on one simulator).
func (n *Network) SimOfHost(h int) *sim.Simulator { return n.swSim[n.GroupOf(h)] }

// ShardOfHost returns host h's shard index.
func (n *Network) ShardOfHost(h int) int { return n.Part.SwitchShard[n.GroupOf(h)] }

// IdealFCT returns the completion time the flow would see alone in the
// fabric: round-trip propagation (the FCT is measured at the sender, so
// it includes the final ACK), serialization of the full wire size at the
// line rate, and per-hop store-and-forward of one MTU.
func (n *Network) IdealFCT(src, dst int, size units.ByteCount) units.Time {
	hops := n.Hops(src, dst)
	segs := int64(size+n.Cfg.MSS-1) / int64(n.Cfg.MSS)
	wire := size + units.ByteCount(segs)*packet.HeaderBytes
	// On mixed-rate fabrics the slower tier bottlenecks a lone flow.
	rate := n.Cfg.LinkRate
	if up := n.Cfg.UplinkRate; up > 0 && up < rate {
		rate = up
	}
	prop := units.Time(2*hops) * n.Cfg.LinkDelay
	tx := rate.TxTime(wire)
	sf := units.Time(hops-1) * rate.TxTime(n.Cfg.MSS+packet.HeaderBytes)
	ackBack := rate.TxTime(packet.HeaderBytes) * units.Time(hops)
	return prop + tx + sf + ackBack
}

// StartFlow launches a flow from host src to host dst. class is an
// opaque label recorded by metrics (e.g. "websearch", "incast").
func (n *Network) StartFlow(src, dst int, size units.ByteCount, prio uint8,
	algo cc.Algorithm, onComplete func(now units.Time)) uint64 {
	id := n.AllocFlowID()
	n.StartFlowWithID(id, src, dst, size, prio, algo, onComplete)
	return id
}

// AllocFlowID reserves the next flow ID. The workload stream allocates
// IDs in launch order; on the sharded engine it does so at planning time
// (on the coordinator) and launches the flows later on their source
// hosts' shards.
func (n *Network) AllocFlowID() uint64 {
	n.nextFlow++
	return n.nextFlow
}

// StartFlowWithID launches a flow under a pre-allocated ID; see
// AllocFlowID. It must run on the source host's shard.
func (n *Network) StartFlowWithID(id uint64, src, dst int, size units.ByteCount, prio uint8,
	algo cc.Algorithm, onComplete func(now units.Time)) {
	if src == dst {
		panic(fmt.Sprintf("topo: flow to self (host %d)", src))
	}
	if n.OnFlowStart != nil {
		n.OnFlowStart(id, src, dst, size, prio)
	}
	n.Hosts[src].StartFlow(id, packet.NodeID(dst), size, prio, algo, onComplete)
}

// PathHop identifies one egress port on a flow's routed path.
type PathHop struct {
	Sw   *device.Switch
	Port int
}

// PathQueues appends to buf the egress (switch, port) pairs a flow's
// packets traverse from src to dst, in path order, by walking the
// forwarding tables with the flow's real ID — so the ECMP choice
// matches what the packet engine will do. The hybrid engine uses it to
// map a fluid flow's rate onto the queues it loads. The walk follows
// graph adjacency, so it terminates for any shape; it panics if the
// destination became unreachable (a failed fabric partition).
func (n *Network) PathQueues(flowID uint64, src, dst int, buf []PathHop) []PathHop {
	if src == dst {
		return buf
	}
	var probe packet.Packet
	probe.Dst = packet.NodeID(dst)
	probe.FlowID = flowID
	cur := n.GroupOf(src)
	for range n.switches {
		port := n.rt.tables[cur].route(&probe)
		if port < 0 {
			panic(fmt.Sprintf("topo: no route from %d to %d (failed links partitioned the fabric)", src, dst))
		}
		buf = append(buf, PathHop{Sw: n.switches[cur], Port: port})
		ref := n.G.Peer(cur, port)
		if ref.ToHost {
			return buf
		}
		cur = int(ref.Peer)
	}
	panic(fmt.Sprintf("topo: routed path from %d to %d did not terminate", src, dst))
}

// WorstBufferFrac returns the worst shared-buffer occupancy fraction
// across all switches, the fabric-wide statistic the buffer sampler
// records. Callers must hold the fabric quiescent (serial execution or
// a window barrier).
func (n *Network) WorstBufferFrac() float64 {
	worst := 0.0
	for _, sw := range n.switches {
		if f := float64(sw.MMU().TotalUsed()) / float64(n.Cfg.BufferSize); f > worst {
			worst = f
		}
	}
	return worst
}

// Switches returns all switches in graph order (edge tier first). The
// slice is the network's own — callers must not mutate it.
func (n *Network) Switches() []*device.Switch { return n.switches }

// SwitchAt returns the switch at graph index i.
func (n *Network) SwitchAt(i int) *device.Switch { return n.switches[i] }

// Stop cancels all periodic switch tickers.
func (n *Network) Stop() {
	for _, sw := range n.switches {
		sw.Stop()
	}
}

// TotalDrops sums packet drops across the fabric, including packets
// dropped for lack of any route (black-holed during link failures).
func (n *Network) TotalDrops() int64 {
	var total int64
	for _, sw := range n.switches {
		total += sw.TotalDrops() + sw.RouteDrops
	}
	return total
}
