package topo

import (
	"fmt"
	"sort"

	"abm/internal/units"
)

// LinkState is the service state a LinkEvent moves a link to.
type LinkState int8

// Link states.
const (
	// LinkUp restores the link to service at its built rate.
	LinkUp LinkState = iota
	// LinkDown removes the link: routing re-converges by pruning it from
	// every next-hop set; packets already queued on its ports drain.
	LinkDown
	// LinkDegraded keeps the link in service at a reduced rate.
	LinkDegraded
)

func (s LinkState) String() string {
	switch s {
	case LinkUp:
		return "up"
	case LinkDown:
		return "down"
	case LinkDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("LinkState(%d)", int(s))
	}
}

// LinkEvent is one scheduled change to a fabric link's state. The run
// layer applies events at their times, at window barriers (the only
// point where cross-shard routing state may safely change), so a
// failure schedule is deterministic and shard-count-invariant.
type LinkEvent struct {
	At    units.Time
	Link  int // Graph.Links index
	State LinkState
	Rate  units.Rate // reduced rate, for LinkDegraded
}

// SortLinkEvents orders a schedule canonically: by time, then link,
// then state — the application order ties at one instant resolve to.
func SortLinkEvents(evs []LinkEvent) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Link != b.Link {
			return a.Link < b.Link
		}
		return a.State < b.State
	})
}

// ApplyLinkEvent transitions one link's state and re-converges routing.
// It must run with the fabric quiescent: between a serial simulator's
// events, or at a window barrier of the parallel engine. Down/up transitions rebuild
// every forwarding table from the surviving graph (next-hop sets are
// pruned or regrown); degradation only changes the two port rates, so
// in-service routing is untouched.
func (n *Network) ApplyLinkEvent(ev LinkEvent) {
	if ev.Link < 0 || ev.Link >= len(n.G.Links) {
		panic(fmt.Sprintf("topo: link event for link %d outside fabric with %d links", ev.Link, len(n.G.Links)))
	}
	lk := &n.G.Links[ev.Link]
	lo := n.switches[lk.Lo].Port(lk.LoPort)
	hi := n.switches[lk.Hi].Port(lk.HiPort)
	switch ev.State {
	case LinkDown:
		if !n.linkUp[ev.Link] {
			return
		}
		n.linkUp[ev.Link] = false
		n.rt.recompute(n.G, n.linkUp)
	case LinkUp:
		lo.SetRate(n.linkRates[ev.Link][0])
		hi.SetRate(n.linkRates[ev.Link][1])
		if n.linkUp[ev.Link] {
			return
		}
		n.linkUp[ev.Link] = true
		n.rt.recompute(n.G, n.linkUp)
	case LinkDegraded:
		if ev.Rate <= 0 {
			panic(fmt.Sprintf("topo: degraded link %s needs a positive rate", n.G.LinkName(ev.Link)))
		}
		lo.SetRate(ev.Rate)
		hi.SetRate(ev.Rate)
	default:
		panic(fmt.Sprintf("topo: unknown link state %d", ev.State))
	}
}

// LinkIsUp reports whether a link is currently in service.
func (n *Network) LinkIsUp(link int) bool { return n.linkUp[link] }
