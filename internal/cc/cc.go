// Package cc implements the end-host congestion-control algorithms the
// paper evaluates with and without ABM (§4.2): Cubic (loss-based), DCTCP
// (ECN-based), TIMELY (RTT-gradient, rate-based), PowerTCP (in-band
// telemetry) and θ-PowerTCP (timestamp-only), plus Reno as the textbook
// baseline. Algorithms are pure window/rate state machines; the transport
// layer drives them with ACK, recovery and timeout events.
package cc

import (
	"fmt"
	"sort"

	"abm/internal/packet"
	"abm/internal/units"
)

// Config describes the connection to an algorithm at Init time.
type Config struct {
	MSS      units.ByteCount
	BaseRTT  units.Time // propagation RTT of the longest path (§4.1)
	LineRate units.Rate // host NIC bandwidth
	MaxCwnd  units.ByteCount

	// InitialWindow sets the starting congestion window. Zero selects
	// one bandwidth-delay product, the datacenter-transport convention
	// (flows may fill the first RTT unscheduled, §3.3); window-based
	// algorithms fall back to 10 MSS if the BDP is degenerate.
	InitialWindow units.ByteCount
}

// BDP returns the bandwidth-delay product for the configured path.
func (c Config) BDP() units.ByteCount { return c.LineRate.BytesOver(c.BaseRTT) }

// cwndCap is the window ceiling of the telemetry- and delay-driven
// algorithms: MaxCwnd when set, else four bandwidth-delay products.
func (c Config) cwndCap() units.ByteCount {
	if c.MaxCwnd > 0 {
		return c.MaxCwnd
	}
	return 4 * c.BDP()
}

// initialWindow resolves the starting window.
func (c Config) initialWindow() units.ByteCount {
	if c.InitialWindow > 0 {
		return c.InitialWindow
	}
	if bdp := c.BDP(); bdp >= 10*c.MSS {
		return bdp
	}
	return 10 * c.MSS
}

// AckEvent carries the per-ACK feedback the transport extracts.
type AckEvent struct {
	Now        units.Time
	AckedBytes units.ByteCount
	RTT        units.Time // measured from echo timestamp; 0 if unavailable
	ECNMarked  bool       // the acked segment carried CE
	INT        []packet.HopINT
}

// Algorithm is a congestion-control state machine. Window returns the
// current congestion window in bytes; PacingRate returns a non-zero rate
// for rate-based algorithms (the transport then paces packets and uses
// Window only as a cap).
type Algorithm interface {
	Name() string
	Init(cfg Config)
	OnAck(ev AckEvent)
	// OnRecovery fires once when the transport enters fast recovery
	// (triple duplicate ACK): the multiplicative-decrease point.
	OnRecovery(now units.Time)
	OnTimeout(now units.Time)
	Window() units.ByteCount
	PacingRate() units.Rate
	// UsesECN reports whether the algorithm wants ECT set on its packets.
	UsesECN() bool
	// NeedsINT reports whether switches must stamp telemetry.
	NeedsINT() bool
}

// WindowRescaler is an optional interface: algorithms whose state can be
// consistently re-centered on an externally supplied congestion window
// implement it. The hybrid engine uses it when promoting a flow out of
// fluid mode — the window reconstructed from the fluid trajectory
// (fair-share rate x srtt) replaces the pre-demotion window and the
// algorithm re-enters congestion avoidance around it. Algorithms with
// internal state that cannot be re-centered (telemetry histories,
// rate-based pipelines) simply don't implement it and keep their frozen
// window.
type WindowRescaler interface {
	SetWindow(w units.ByteCount)
}

// Factory builds a fresh algorithm instance per flow.
type Factory func() Algorithm

// NewFactory resolves an algorithm name ("reno", "cubic", "dctcp",
// "timely", "powertcp", "theta-powertcp") to a factory.
func NewFactory(name string) (Factory, error) {
	switch name {
	case "reno":
		return func() Algorithm { return NewReno() }, nil
	case "cubic":
		return func() Algorithm { return NewCubic() }, nil
	case "dctcp":
		return func() Algorithm { return NewDCTCP() }, nil
	case "timely":
		return func() Algorithm { return NewTimely() }, nil
	case "powertcp":
		return func() Algorithm { return NewPowerTCP() }, nil
	case "theta-powertcp":
		return func() Algorithm { return NewThetaPowerTCP() }, nil
	case "hpcc":
		return func() Algorithm { return NewHPCC() }, nil
	case "dcqcn":
		return func() Algorithm { return NewDCQCN() }, nil
	case "swift":
		return func() Algorithm { return NewSwift() }, nil
	default:
		return nil, fmt.Errorf("cc: unknown algorithm %q (known: %v)", name, Names())
	}
}

// Names lists the recognized algorithm names.
func Names() []string {
	n := []string{"reno", "cubic", "dctcp", "timely", "powertcp", "theta-powertcp", "hpcc", "dcqcn", "swift"}
	sort.Strings(n)
	return n
}

// clampWindow bounds a window to [MSS, MaxCwnd].
func clampWindow(w, mss, max units.ByteCount) units.ByteCount {
	if w < mss {
		return mss
	}
	if max > 0 && w > max {
		return max
	}
	return w
}
