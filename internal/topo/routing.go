package topo

import (
	"abm/internal/packet"
)

// fwdTable is one switch's forwarding state, computed from the graph.
// The per-packet router is pure array lookup — no allocation, no probe
// walks, no division — and ECMP picks within a destination group's
// next-hop port set by flow hash, so the set degrades gracefully when
// failures prune it. Each switch's router closure holds its *fwdTable
// for the life of the fabric: recompute rewrites the next-hop sets in
// place and never reallocates routeTables.tables.
type fwdTable struct {
	// ownGroup is the switch's edge group (-1 above the edge tier):
	// packets to its own hosts exit on the host port directly.
	ownGroup int32
	// groupBase is the first host ID of ownGroup.
	groupBase packet.NodeID
	// groupOf maps a host ID to its edge group; one array shared by
	// every table of the fabric.
	groupOf []int32
	// next[g] lists the candidate egress ports toward edge group g, in
	// ascending port order. A singleton set forwards without hashing;
	// an empty set means g is unreachable (the packet is dropped).
	next [][]int32
}

// routeTables holds the fabric's forwarding and distance state. The
// Network recomputes it in place whenever a link changes state; router
// closures point at their table, so updates apply to the next routed
// packet with no per-packet indirection cost.
type routeTables struct {
	tables []fwdTable // never reallocated: routers hold &tables[i]
	// groupDist[a][b] is the switch-to-switch hop distance between edge
	// groups a and b (0 on the diagonal; leaf-spine remote pairs are 2,
	// fat-tree inter-pod pairs 4). Unreachable pairs keep their last
	// finite value so FCT normalization stays stable across failures.
	groupDist [][]int16

	// scratch, reused across recomputes (failures are rare events; the
	// steady-state path never touches these).
	dist  []int16
	queue []int32
}

// newRouteTables allocates forwarding state for the graph.
func newRouteTables(g *Graph) *routeTables {
	rt := &routeTables{
		tables:    make([]fwdTable, g.NumSwitches()),
		groupDist: make([][]int16, g.NumGroups()),
		dist:      make([]int16, g.NumSwitches()),
		queue:     make([]int32, 0, g.NumSwitches()),
	}
	groups := g.NumGroups()
	groupOf := make([]int32, g.NumHosts())
	for h := range groupOf {
		groupOf[h] = int32(g.GroupOfHost(h))
	}
	for i := range rt.tables {
		t := &rt.tables[i]
		t.groupOf = groupOf
		t.ownGroup = -1
		if g.TierOf(i) == 0 {
			t.ownGroup = int32(i)
			t.groupBase = packet.NodeID(i * g.HostsPerEdge)
		}
		t.next = make([][]int32, groups)
	}
	for a := range rt.groupDist {
		rt.groupDist[a] = make([]int16, groups)
		for b := range rt.groupDist[a] {
			if a != b {
				rt.groupDist[a][b] = -1
			}
		}
	}
	return rt
}

// recompute rebuilds every next-hop set from the graph restricted to
// links where linkUp is true: one BFS per destination edge group, next
// hops at each switch being the ports whose live peer is one step
// closer to the destination. Determinism: ports are scanned in
// ascending order, so sets are canonical; the result depends only on
// the graph and the up/down state, never on event interleaving.
func (rt *routeTables) recompute(g *Graph, linkUp []bool) {
	for dstGroup := 0; dstGroup < g.NumGroups(); dstGroup++ {
		dist := rt.dist
		for i := range dist {
			dist[i] = -1
		}
		dist[dstGroup] = 0 // edge switch index == group index
		q := rt.queue[:0]
		q = append(q, int32(dstGroup))
		for len(q) > 0 {
			cur := int(q[0])
			q = q[1:]
			for p := range g.ports[cur] {
				ref := g.ports[cur][p]
				if ref.ToHost || !linkUp[g.linkOf[cur][p]] {
					continue
				}
				if peer := int(ref.Peer); dist[peer] < 0 {
					dist[peer] = dist[cur] + 1
					q = append(q, ref.Peer)
				}
			}
		}
		for i := range rt.tables {
			set := rt.tables[i].next[dstGroup][:0]
			if dist[i] > 0 {
				for p := range g.ports[i] {
					ref := g.ports[i][p]
					if ref.ToHost || !linkUp[g.linkOf[i][p]] {
						continue
					}
					if pd := dist[ref.Peer]; pd >= 0 && pd == dist[i]-1 {
						set = append(set, int32(p))
					}
				}
			}
			rt.tables[i].next[dstGroup] = set
		}
		for srcGroup := 0; srcGroup < g.NumGroups(); srcGroup++ {
			if d := dist[srcGroup]; d >= 0 {
				rt.groupDist[dstGroup][srcGroup] = d
			}
		}
	}
}

// worstGroupDist returns the largest pairwise edge-group distance —
// with the host access links on both ends, the fabric's worst hop
// count is worstGroupDist + 2 (or 2 flat for a single group).
func (rt *routeTables) worstGroupDist() int {
	worst := 0
	for a := range rt.groupDist {
		for b := range rt.groupDist[a] {
			if d := int(rt.groupDist[a][b]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// WorstHops returns the worst-case host-to-host switch hop count on the
// healthy graph: 2 within one edge group, 2 plus the worst inter-group
// distance across it (4 on a multi-leaf leaf–spine, 6 on a fat tree).
func (g *Graph) WorstHops() int {
	rt := newRouteTables(g)
	up := make([]bool, len(g.Links))
	for i := range up {
		up[i] = true
	}
	rt.recompute(g, up)
	if d := rt.worstGroupDist(); d > 0 {
		return 2 + d
	}
	return 2
}

// Reachable reports whether every edge-group pair can still reach each
// other over the in-service links. The scenario layer uses it to reject
// fault schedules that disconnect the fabric permanently: a black-holed
// sender retransmits forever, and the run layer drains event chains to
// exhaustion after the traffic window.
func (g *Graph) Reachable(up []bool) bool {
	rt := newRouteTables(g)
	rt.recompute(g, up)
	for a := range rt.groupDist {
		for b := range rt.groupDist[a] {
			if a != b && rt.groupDist[a][b] < 0 {
				return false
			}
		}
	}
	return true
}

// ecmpHash mixes the flow ID (splitmix64 finalizer) so consecutive flow
// IDs spread across equal-cost next hops.
func ecmpHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// route picks the egress port for pkt at this table's switch: the host
// port inside the switch's own edge group, otherwise an ECMP choice
// from the destination group's next-hop set. Returns -1 when the
// destination is unreachable (every next hop failed) — the device layer
// drops such packets, the packet analogue of a routing black hole.
func (t *fwdTable) route(pkt *packet.Packet) int {
	grp := t.groupOf[pkt.Dst]
	if grp == t.ownGroup {
		return int(pkt.Dst - t.groupBase)
	}
	set := t.next[grp]
	switch len(set) {
	case 0:
		return -1
	case 1:
		return int(set[0])
	}
	return int(set[ecmpPick(ecmpHash(pkt.FlowID), uint64(len(set)))])
}

// ecmpPick reduces a flow hash to an index below n (n >= 1): h mod n,
// computed with a mask instead of a division when n is a power of two —
// the same value, so the choice never depends on which branch ran.
func ecmpPick(h, n uint64) uint64 {
	if n&(n-1) == 0 {
		return h & (n - 1)
	}
	return h % n
}
