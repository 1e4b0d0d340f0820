package topo

import (
	"fmt"

	"abm/internal/packet"
)

// Graph is the pure shape of a fabric: typed switch nodes arranged in
// tiers, host attachment points, and the switch<->switch links between
// tiers. It carries no rates, buffers or simulators — the Network
// builder turns a Graph plus a Config into running devices — so shape
// constructors (LeafSpine, FatTree) and consumers (routing tables,
// partitions, oversubscription math) share one representation.
//
// Conventions, relied on throughout the package:
//   - Switch indices are tier-ascending: all tier-0 (edge) switches
//     first, then tier 1, and so on. Within a tier, indices follow the
//     constructor's natural order (pods left to right).
//   - Edge group g's switch is exactly switch index g, and its hosts
//     are the contiguous host IDs [g*HostsPerEdge, (g+1)*HostsPerEdge).
//   - Links list every switch<->switch wire once, lower tier first, in
//     the canonical construction order. The sharded builder registers
//     its mailboxes in this exact order, which makes the barrier merge
//     order a property of the shape alone (partition-invariant).
type Graph struct {
	// Shape names the constructor: "leafspine" or "fattree".
	Shape string
	// Tiers is the switch tier count (2 for leaf-spine, 3 for fat-tree).
	Tiers int
	// HostsPerEdge is the uniform host count under each edge switch.
	HostsPerEdge int

	// TierCount is the switch count per tier, edge first.
	TierCount []int

	tier  []int8          // per switch index: 0 = edge
	id    []packet.NodeID // per switch index: stable NodeID
	name  []string        // per switch index: "leaf0", "agg3", ...
	ports [][]PortRef     // per switch index, per port: the peer

	// linkOf maps (switch, port) to the index into Links, or -1 for
	// host-facing ports. Routing uses it to honor per-link up/down state.
	linkOf [][]int32

	// Links is every switch<->switch link in canonical wiring order.
	Links []GraphLink
}

// PortRef identifies what a switch port connects to.
type PortRef struct {
	ToHost bool
	Peer   int32 // host index when ToHost, switch index otherwise
	Port   int32 // peer's port index (unused for hosts: host NICs have one port)
}

// GraphLink is one switch<->switch wire, identified by its two ends.
// Lo is always the lower-tier side.
type GraphLink struct {
	Lo, LoPort int
	Hi, HiPort int
}

// NodeID tier bases: hosts are 0..N-1, tier-t switches count from
// (t+1)*10000. Leaf-spine uses the first two bases (leaf, spine);
// fat-tree uses all three (edge, agg, core).
const (
	leafIDBase  = 10000
	spineIDBase = 20000
	coreIDBase  = 30000
	tierIDStep  = 10000
)

// MaxHosts is the most hosts a graph can number: host IDs 0..N-1 must
// stay below the first switch ID.
const MaxHosts = leafIDBase

// NumSwitches returns the total switch count.
func (g *Graph) NumSwitches() int { return len(g.tier) }

// NumHosts returns the total host count.
func (g *Graph) NumHosts() int { return g.TierCount[0] * g.HostsPerEdge }

// NumGroups returns the edge-group (rack/edge-switch) count.
func (g *Graph) NumGroups() int { return g.TierCount[0] }

// GroupOfHost returns the edge group of a host index.
func (g *Graph) GroupOfHost(h int) int { return h / g.HostsPerEdge }

// TierOf returns the tier of a switch index (0 = edge).
func (g *Graph) TierOf(i int) int { return int(g.tier[i]) }

// SwitchID returns the NodeID of a switch index.
func (g *Graph) SwitchID(i int) packet.NodeID { return g.id[i] }

// SwitchName returns the label of a switch index ("leaf0", "core2").
func (g *Graph) SwitchName(i int) string { return g.name[i] }

// NumPorts returns the port count of a switch index.
func (g *Graph) NumPorts(i int) int { return len(g.ports[i]) }

// Peer returns what (switch i, port p) connects to.
func (g *Graph) Peer(i, p int) PortRef { return g.ports[i][p] }

// LinkAt returns the Links index of (switch i, port p), or -1 for a
// host-facing port.
func (g *Graph) LinkAt(i, p int) int { return int(g.linkOf[i][p]) }

// MaxPorts returns the largest per-switch port count — the radix that
// sizes shared buffers from a KB-per-port spec.
func (g *Graph) MaxPorts() int {
	max := 0
	for i := range g.ports {
		if n := len(g.ports[i]); n > max {
			max = n
		}
	}
	return max
}

// LinkName renders a link as "<lo>-<hi>" ("leaf0-spine1", "agg2-core0"),
// the form scenario fault specs use.
func (g *Graph) LinkName(l int) string {
	lk := g.Links[l]
	return g.name[lk.Lo] + "-" + g.name[lk.Hi]
}

// LinkIndex resolves a "<a>-<b>" link name (either end first) to its
// Links index.
func (g *Graph) LinkIndex(name string) (int, error) {
	for l := range g.Links {
		lk := &g.Links[l]
		if n := g.name[lk.Lo] + "-" + g.name[lk.Hi]; n == name {
			return l, nil
		}
		if n := g.name[lk.Hi] + "-" + g.name[lk.Lo]; n == name {
			return l, nil
		}
	}
	return 0, fmt.Errorf("topo: fabric %s has no link %q", g.Shape, name)
}

// NodeNameOf renders any NodeID in this graph as a human-readable label
// ("host3", "leaf0", "agg1", "core2").
func (g *Graph) NodeNameOf(id packet.NodeID) string {
	if int(id) < leafIDBase {
		return fmt.Sprintf("host%d", int(id))
	}
	tier := int(id)/tierIDStep - 1
	idx := int(id) % tierIDStep
	if tier < len(g.TierCount) {
		base := 0
		for t := 0; t < tier; t++ {
			base += g.TierCount[t]
		}
		if idx < g.TierCount[tier] {
			return g.name[base+idx]
		}
	}
	return fmt.Sprintf("node%d", int(id))
}

// tierLabel names a tier for a shape: leaf-spine tiers are leaf/spine,
// three-tier Clos tiers are edge/agg/core.
func tierLabel(shape string, tier int) string {
	if shape == "leafspine" {
		return [...]string{"leaf", "spine"}[tier]
	}
	return [...]string{"edge", "agg", "core"}[tier]
}

// newGraph allocates the per-switch storage for a shape whose tier
// populations are known. Constructors then wire ports and links.
func newGraph(shape string, hostsPerEdge int, tierCount ...int) *Graph {
	g := &Graph{Shape: shape, Tiers: len(tierCount), HostsPerEdge: hostsPerEdge,
		TierCount: append([]int(nil), tierCount...)}
	total := 0
	for _, c := range tierCount {
		total += c
	}
	g.tier = make([]int8, 0, total)
	g.id = make([]packet.NodeID, 0, total)
	g.name = make([]string, 0, total)
	g.ports = make([][]PortRef, total)
	for t, c := range tierCount {
		for i := 0; i < c; i++ {
			g.tier = append(g.tier, int8(t))
			g.id = append(g.id, packet.NodeID((t+1)*tierIDStep+i))
			g.name = append(g.name, fmt.Sprintf("%s%d", tierLabel(shape, t), i))
		}
	}
	return g
}

// addLink appends one switch<->switch wire (lo the lower-tier side) to
// the canonical link list and records both port peers.
func (g *Graph) addLink(lo, loPort, hi, hiPort int) {
	g.ports[lo][loPort] = PortRef{Peer: int32(hi), Port: int32(hiPort)}
	g.ports[hi][hiPort] = PortRef{Peer: int32(lo), Port: int32(loPort)}
	g.Links = append(g.Links, GraphLink{Lo: lo, LoPort: loPort, Hi: hi, HiPort: hiPort})
}

// finish derives the (switch, port) -> link index map once all links
// are added, and attaches host port refs.
func (g *Graph) finish() *Graph {
	g.linkOf = make([][]int32, len(g.ports))
	for i := range g.ports {
		g.linkOf[i] = make([]int32, len(g.ports[i]))
		for p := range g.linkOf[i] {
			g.linkOf[i][p] = -1
		}
	}
	for l, lk := range g.Links {
		g.linkOf[lk.Lo][lk.LoPort] = int32(l)
		g.linkOf[lk.Hi][lk.HiPort] = int32(l)
	}
	// Hosts attach to edge switch g at ports [0, HostsPerEdge).
	for e := 0; e < g.TierCount[0]; e++ {
		for p := 0; p < g.HostsPerEdge; p++ {
			g.ports[e][p] = PortRef{ToHost: true, Peer: int32(e*g.HostsPerEdge + p)}
		}
	}
	return g
}

// LeafSpine builds the two-tier shape of the paper's evaluation (§4.1):
// every leaf connects to every spine. Leaf l's ports are its hosts
// first ([0, hostsPerLeaf)) then one uplink per spine; spine s's port l
// faces leaf l.
func LeafSpine(spines, leaves, hostsPerLeaf int) *Graph {
	if spines <= 0 || leaves <= 0 || hostsPerLeaf <= 0 {
		panic(fmt.Sprintf("topo: leaf-spine needs positive dimensions, got %dx%dx%d", spines, leaves, hostsPerLeaf))
	}
	g := newGraph("leafspine", hostsPerLeaf, leaves, spines)
	for l := 0; l < leaves; l++ {
		g.ports[l] = make([]PortRef, hostsPerLeaf+spines)
	}
	for s := 0; s < spines; s++ {
		g.ports[leaves+s] = make([]PortRef, leaves)
	}
	// The l x sp double loop is the canonical wiring (and, sharded,
	// mailbox registration) order the engine's merge relies on.
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			g.addLink(l, hostsPerLeaf+s, leaves+s, l)
		}
	}
	return g.finish()
}

// FatTree builds the three-tier k-ary fat-tree (Al-Fares et al.): k
// pods, each with k/2 edge and k/2 aggregation switches; (k/2)^2 core
// switches; k/2 hosts per edge switch; every switch has exactly k
// ports. Aggregation switch j of each pod connects to cores
// [j*k/2, (j+1)*k/2); core c's port p faces pod p. k must be even and
// at least 2; k=4 gives 16 hosts over 20 switches.
func FatTree(k int) *Graph {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree arity must be even and >= 2, got %d", k))
	}
	half := k / 2
	edges, aggs, cores := k*half, k*half, half*half
	g := newGraph("fattree", half, edges, aggs, cores)
	for i := 0; i < edges+aggs; i++ {
		g.ports[i] = make([]PortRef, k)
	}
	for c := 0; c < cores; c++ {
		g.ports[edges+aggs+c] = make([]PortRef, k)
	}
	// Tier 0 <-> tier 1: edge switch (pod p, index i) up-port half+j
	// connects agg (pod p, index j) at its down-port i.
	for e := 0; e < edges; e++ {
		pod, i := e/half, e%half
		for j := 0; j < half; j++ {
			g.addLink(e, half+j, edges+pod*half+j, i)
		}
	}
	// Tier 1 <-> tier 2: agg (pod p, index j) up-port half+m connects
	// core j*half+m at its port p.
	for a := 0; a < aggs; a++ {
		pod, j := a/half, a%half
		for m := 0; m < half; m++ {
			g.addLink(edges+a, half+m, edges+aggs+j*half+m, pod)
		}
	}
	return g.finish()
}

// TierOversubscription returns the oversubscription ratio at each
// non-top tier: capacity entering tier-t switches from below over
// capacity leaving them upward. linkRate is the host access rate,
// uplinkRate the switch<->switch tier rate (pass linkRate for uniform
// fabrics). The edge entry (index 0) generalizes the classic
// hosts*rate / spines*uplink leaf ratio.
func (g *Graph) TierOversubscription(linkRate, uplinkRate float64) []float64 {
	if uplinkRate <= 0 {
		uplinkRate = linkRate
	}
	out := make([]float64, g.Tiers-1)
	base := 0
	for t := 0; t < g.Tiers-1; t++ {
		var down, up float64
		for i := base; i < base+g.TierCount[t]; i++ {
			for p := range g.ports[i] {
				ref := g.ports[i][p]
				switch {
				case ref.ToHost:
					down += linkRate
				case int(g.tier[ref.Peer]) < t:
					down += uplinkRate
				case int(g.tier[ref.Peer]) > t:
					up += uplinkRate
				}
			}
		}
		if up > 0 {
			out[t] = down / up
		}
		base += g.TierCount[t]
	}
	return out
}
