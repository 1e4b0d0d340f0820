package topo

import (
	"fmt"
	"testing"

	"abm/internal/cc"
	"abm/internal/packet"
	"abm/internal/sim"
	"abm/internal/units"
)

// allUp returns a fresh all-links-in-service vector for g.
func allUp(g *Graph) []bool {
	up := make([]bool, len(g.Links))
	for i := range up {
		up[i] = true
	}
	return up
}

// walkTable follows the forwarding tables hop by hop from src's edge
// switch until the packet reaches a host port, returning the switch
// path and whether it arrived at dst. A walk longer than the switch
// count is a loop.
func walkTable(g *Graph, rt *routeTables, src, dst int, flowID uint64) ([]int, bool) {
	pkt := &packet.Packet{FlowID: flowID, Dst: packet.NodeID(dst)}
	sw := g.GroupOfHost(src)
	var path []int
	for steps := 0; steps <= g.NumSwitches(); steps++ {
		path = append(path, sw)
		out := rt.tables[sw].route(pkt)
		if out < 0 {
			return path, false
		}
		ref := g.Peer(sw, out)
		if ref.ToHost {
			return path, int(ref.Peer) == dst
		}
		sw = int(ref.Peer)
	}
	return path, false
}

// bfsDist computes per-switch hop distance to dstGroup's edge switch
// over in-service links — an independent reference for the table
// builder's cost structure.
func bfsDist(g *Graph, up []bool, dstGroup int) []int {
	dist := make([]int, g.NumSwitches())
	for i := range dist {
		dist[i] = -1
	}
	dist[dstGroup] = 0
	queue := []int{dstGroup}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for p := 0; p < g.NumPorts(i); p++ {
			ref := g.Peer(i, p)
			if ref.ToHost || !up[g.LinkAt(i, p)] {
				continue
			}
			if j := int(ref.Peer); dist[j] < 0 {
				dist[j] = dist[i] + 1
				queue = append(queue, j)
			}
		}
	}
	return dist
}

// propertyGraphs is the shape zoo the routing properties run over.
func propertyGraphs() map[string]*Graph {
	return map[string]*Graph{
		"leafspine-2x2x4": LeafSpine(2, 2, 4),
		"leafspine-4x3x2": LeafSpine(4, 3, 2),
		"leafspine-1x2x2": LeafSpine(1, 2, 2),
		"fattree-k2":      FatTree(2),
		"fattree-k4":      FatTree(4),
	}
}

// TestRoutingTableProperties checks the table invariants on healthy
// graphs and after every possible single-link failure: every in-service
// next hop lies on a shortest surviving path (so ECMP sets are
// symmetric-cost), sets are exactly the minimal-cost port sets, every
// reachable destination group has a nonempty set, and all host pairs
// route loop-free (unreachable pairs black-hole instead of looping).
func TestRoutingTableProperties(t *testing.T) {
	for name, g := range propertyGraphs() {
		t.Run(name, func(t *testing.T) {
			rt := newRouteTables(g)
			states := [][]bool{allUp(g)}
			for l := range g.Links {
				up := allUp(g)
				up[l] = false
				states = append(states, up)
			}
			for si, up := range states {
				label := "healthy"
				if si > 0 {
					label = "down:" + g.LinkName(si-1)
				}
				rt.recompute(g, up)
				for dstGroup := 0; dstGroup < g.NumGroups(); dstGroup++ {
					dist := bfsDist(g, up, dstGroup)
					for i := 0; i < g.NumSwitches(); i++ {
						if g.TierOf(i) == 0 && i == dstGroup {
							continue
						}
						set := rt.tables[i].next[dstGroup]
						if dist[i] < 0 {
							if len(set) != 0 {
								t.Fatalf("%s %s: switch %s unreachable from group %d but has %d next hops",
									name, label, g.SwitchName(i), dstGroup, len(set))
							}
							continue
						}
						// The set must be exactly the ports whose live peer
						// is one step closer — minimal and symmetric-cost.
						var want []int32
						for p := 0; p < g.NumPorts(i); p++ {
							ref := g.Peer(i, p)
							if ref.ToHost || !up[g.LinkAt(i, p)] {
								continue
							}
							if dist[int(ref.Peer)] == dist[i]-1 {
								want = append(want, int32(p))
							}
						}
						if fmt.Sprint(set) != fmt.Sprint(want) {
							t.Fatalf("%s %s: switch %s -> group %d next hops %v, want minimal-cost %v",
								name, label, g.SwitchName(i), dstGroup, set, want)
						}
					}
				}
				// Loop-freedom and reachability for every host pair.
				for src := 0; src < g.NumHosts(); src++ {
					for dst := 0; dst < g.NumHosts(); dst++ {
						if src == dst {
							continue
						}
						path, ok := walkTable(g, rt, src, dst, uint64(src*1009+dst))
						reachable := bfsDist(g, up, g.GroupOfHost(dst))[g.GroupOfHost(src)] >= 0
						if ok != reachable {
							t.Fatalf("%s %s: host %d -> %d arrived=%v, reachability says %v (path %v)",
								name, label, src, dst, ok, reachable, path)
						}
						if len(path) > g.NumSwitches() {
							t.Fatalf("%s %s: host %d -> %d loops: %v", name, label, src, dst, path)
						}
					}
				}
			}
		})
	}
}

// TestHopsMatchWalkedPaths is the replacement for the old probe-walk
// routedHops: the table-derived Hops() must equal the switch count an
// actual packet traverses through the installed routers, for every host
// pair and several flow IDs (ECMP choices never change path length).
func TestHopsMatchWalkedPaths(t *testing.T) {
	for name, build := range map[string]func(*sim.Simulator) *Network{
		"leafspine": func(s *sim.Simulator) *Network {
			return NewNetwork(s, Config{NumSpines: 2, NumLeaves: 2, HostsPerLeaf: 4,
				LinkRate: 10 * units.GigabitPerSec, LinkDelay: 10 * units.Microsecond})
		},
		"fattree-k4": func(s *sim.Simulator) *Network {
			return NewNetwork(s, Config{Topo: FatTree(4),
				LinkRate: 10 * units.GigabitPerSec, LinkDelay: 10 * units.Microsecond})
		},
	} {
		t.Run(name, func(t *testing.T) {
			n := build(sim.New(1))
			defer n.Stop()
			g := n.G
			for src := 0; src < g.NumHosts(); src++ {
				for dst := 0; dst < g.NumHosts(); dst++ {
					if src == dst {
						continue
					}
					for _, flowID := range []uint64{1, 7, 1 << 40} {
						path, ok := walkTable(g, n.rt, src, dst, flowID)
						if !ok {
							t.Fatalf("host %d -> %d did not arrive (path %v)", src, dst, path)
						}
						// Hops counts link traversals: the walked switches
						// plus the destination host link.
						if len(path)+1 != n.Hops(src, dst) {
							t.Fatalf("host %d -> %d walked %d switches (%d links), Hops says %d",
								src, dst, len(path), len(path)+1, n.Hops(src, dst))
						}
					}
				}
			}
			// The worst pair bounds BaseRTT: 2 hops per direction plus
			// host links on both ends.
			worst := 0
			for src := 0; src < g.NumHosts(); src++ {
				for dst := 0; dst < g.NumHosts(); dst++ {
					if src != dst && n.Hops(src, dst) > worst {
						worst = n.Hops(src, dst)
					}
				}
			}
			if want := 2 * units.Time(worst) * n.Cfg.LinkDelay; n.BaseRTT() != want {
				t.Fatalf("BaseRTT %v, want %v from worst hops %d", n.BaseRTT(), want, worst)
			}
		})
	}
}

// TestLinkFailureRerouting drives a cross-fabric flow into a mid-run
// uplink failure: traffic re-converges onto the surviving paths and the
// flow still completes; failing every uplink of its rack black-holes it
// and the route-drop counter accounts for the loss.
func TestLinkFailureRerouting(t *testing.T) {
	s := sim.New(7)
	cfg := Config{NumSpines: 2, NumLeaves: 2, HostsPerLeaf: 4,
		LinkRate: 10 * units.GigabitPerSec, LinkDelay: 10 * units.Microsecond}
	n := NewNetwork(s, cfg)
	li, err := n.G.LinkIndex("leaf0-spine0")
	if err != nil {
		t.Fatal(err)
	}
	done := false
	s.At(0, func() {
		n.StartFlow(0, 5, 400*units.Kilobyte, 0, cc.NewCubic(), func(units.Time) { done = true })
	})
	s.At(50*units.Microsecond, func() {
		n.ApplyLinkEvent(LinkEvent{Link: li, State: LinkDown})
	})
	s.RunUntil(100 * units.Millisecond)
	n.Stop()
	s.Run()
	if !done {
		t.Fatal("flow did not survive a single uplink failure")
	}
	if n.LinkIsUp(li) {
		t.Fatal("failed link reported up")
	}

	// Second fabric: kill both of leaf0's uplinks mid-flow — the
	// destination group becomes unreachable and packets route-drop.
	s2 := sim.New(7)
	n2 := NewNetwork(s2, cfg)
	finished := false
	s2.At(0, func() {
		n2.StartFlow(0, 5, 400*units.Kilobyte, 0, cc.NewCubic(), func(units.Time) { finished = true })
	})
	s2.At(50*units.Microsecond, func() {
		for _, link := range []string{"leaf0-spine0", "leaf0-spine1"} {
			li, err := n2.G.LinkIndex(link)
			if err != nil {
				t.Fatal(err)
			}
			n2.ApplyLinkEvent(LinkEvent{Link: li, State: LinkDown})
		}
	})
	// A black-holed sender retransmits on RTO indefinitely, so only run
	// to a bounded horizon — never to queue exhaustion.
	s2.RunUntil(20 * units.Millisecond)
	var routeDrops int64
	for _, sw := range n2.Switches() {
		routeDrops += sw.RouteDrops
	}
	n2.Stop()
	if finished {
		t.Fatal("flow completed across a disconnected fabric")
	}
	if routeDrops == 0 {
		t.Fatal("no route drops counted on a black-holed path")
	}
	if n2.TotalDrops() < routeDrops {
		t.Fatalf("TotalDrops %d omits %d route drops", n2.TotalDrops(), routeDrops)
	}
}

// TestLinkRecoveryRestoresECMP fails and recovers a link and checks the
// next-hop sets return to their healthy form, including the degraded
// state leaving routing untouched.
func TestLinkRecoveryRestoresECMP(t *testing.T) {
	s := sim.New(3)
	cfg := Config{NumSpines: 4, NumLeaves: 2, HostsPerLeaf: 2,
		LinkRate: 10 * units.GigabitPerSec, LinkDelay: 10 * units.Microsecond}
	n := NewNetwork(s, cfg)
	defer n.Stop()
	healthy := fmt.Sprint(n.rt.tables[0].next[1])
	li, err := n.G.LinkIndex("leaf0-spine2")
	if err != nil {
		t.Fatal(err)
	}
	n.ApplyLinkEvent(LinkEvent{Link: li, State: LinkDegraded, Rate: units.GigabitPerSec})
	if got := fmt.Sprint(n.rt.tables[0].next[1]); got != healthy {
		t.Fatalf("degradation changed routing: %s != %s", got, healthy)
	}
	n.ApplyLinkEvent(LinkEvent{Link: li, State: LinkDown})
	if got := fmt.Sprint(n.rt.tables[0].next[1]); got == healthy {
		t.Fatal("failure did not prune the next-hop set")
	}
	n.ApplyLinkEvent(LinkEvent{Link: li, State: LinkUp})
	if got := fmt.Sprint(n.rt.tables[0].next[1]); got != healthy {
		t.Fatalf("recovery did not restore the healthy set: %s != %s", got, healthy)
	}
}

// TestCapturedTableSeesLinkEvents pins the contract the per-switch
// router relies on: the closure installed at build time holds its
// switch's table, ApplyLinkEvent recomputes that table in place, and
// so the very same closure routes over the pruned set after a failure
// and over the full set again after recovery — no rebuild, no
// SetRouter.
func TestCapturedTableSeesLinkEvents(t *testing.T) {
	s := sim.New(3)
	n := NewNetwork(s, Config{NumSpines: 4, NumLeaves: 2, HostsPerLeaf: 2,
		LinkRate: 10 * units.GigabitPerSec, LinkDelay: 10 * units.Microsecond})
	defer n.Stop()
	leaf0 := n.SwitchAt(0)
	table0 := &n.rt.tables[0]
	li, err := n.G.LinkIndex("leaf0-spine2")
	if err != nil {
		t.Fatal(err)
	}
	deadPort := n.G.Links[li].LoPort

	// portsUsed routes 10^4 flows toward the remote rack through the
	// switch's installed router (Switch.RoutePort calls the closure).
	portsUsed := func() map[int]int {
		used := map[int]int{}
		pkt := &packet.Packet{Dst: 2}
		for f := uint64(1); f <= 10000; f++ {
			pkt.FlowID = f
			used[leaf0.RoutePort(pkt)]++
		}
		return used
	}
	if used := portsUsed(); len(used) != 4 || used[deadPort] == 0 {
		t.Fatalf("healthy fabric: uplinks used %v, want all 4 including port %d", used, deadPort)
	}
	n.ApplyLinkEvent(LinkEvent{Link: li, State: LinkDown})
	if &n.rt.tables[0] != table0 {
		t.Fatal("link event reallocated the forwarding tables under the routers")
	}
	if used := portsUsed(); len(used) != 3 || used[deadPort] != 0 {
		t.Fatalf("after failure: uplinks used %v, want 3 without port %d", used, deadPort)
	}
	n.ApplyLinkEvent(LinkEvent{Link: li, State: LinkUp})
	if &n.rt.tables[0] != table0 {
		t.Fatal("link event reallocated the forwarding tables under the routers")
	}
	if used := portsUsed(); len(used) != 4 || used[deadPort] == 0 {
		t.Fatalf("after recovery: uplinks used %v, want all 4 including port %d", used, deadPort)
	}
	// Local delivery never consulted the sets.
	if got := leaf0.RoutePort(&packet.Packet{Dst: 1, FlowID: 9}); got != 1 {
		t.Fatalf("host 1 routed to port %d on its own leaf, want 1", got)
	}
}

// TestECMPPickMatchesModulo: the power-of-two mask is an optimization
// of h mod n, not a different hash — for every set size 1-8 and 10^4
// flow IDs the pick equals the modulo formulation's.
func TestECMPPickMatchesModulo(t *testing.T) {
	for n := uint64(1); n <= 8; n++ {
		for f := uint64(0); f < 10000; f++ {
			h := ecmpHash(f)
			if got, want := ecmpPick(h, n), h%n; got != want {
				t.Fatalf("set size %d, flow %d: pick %d, h mod n = %d", n, f, got, want)
			}
		}
	}
}
