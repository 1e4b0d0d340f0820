package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"abm/internal/obs"
	"abm/internal/scenario"
	"abm/internal/units"
)

// obsCell is a medium-scale cell (4 leaves, so shards=4 is a genuine
// 4-way split) short enough for CI but busy enough to exercise drops,
// marks, retransmits and timeouts, on the given engine and telemetry.
func obsCell(t *testing.T, shards int, o obs.Options) scenario.Scenario {
	sc := cell(preset(t, "medium", 42, 2*units.Millisecond), "ABM", 0.6, "dctcp", 0.5)
	sc.Shards = shards
	sc.Obs = o
	return sc
}

// TestObsShardInvariance is the telemetry determinism golden test: the
// model counters and the exported model-kind NDJSON stream must be
// byte-identical at 1, 2 and 4 shards.
func TestObsShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shard sweep")
	}
	dir := t.TempDir()
	var refNDJSON []byte
	var refTotals map[string]int64
	for _, shards := range []int{1, 2, 4} {
		path := filepath.Join(dir, "events.ndjson")
		res := run(t, obsCell(t, shards, obs.Options{EventsFile: path, Filter: "model"}))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		model := map[string]int64{}
		for k, v := range res.Counters {
			if strings.HasPrefix(k, "model/") {
				model[k] = v
			}
		}
		if shards == 1 {
			refNDJSON, refTotals = data, model
			if len(data) == 0 {
				t.Fatal("serial run exported no events")
			}
			if refTotals["model/data_pkts_sent"] == 0 || refTotals["model/admitted_pkts"] == 0 {
				t.Fatalf("serial run recorded no traffic: %v", refTotals)
			}
			continue
		}
		if !reflect.DeepEqual(model, refTotals) {
			t.Errorf("shards=%d model counters diverged:\n%v\nwant\n%v", shards, model, refTotals)
		}
		if !bytes.Equal(data, refNDJSON) {
			t.Errorf("shards=%d NDJSON diverged (%d bytes vs %d)", shards, len(data), len(refNDJSON))
		}
	}
}

// TestObsSamplingSubset checks that a sampled trace is a subset of the
// full trace — the hash selection must never invent lines — and that it
// is itself shard-count-invariant.
func TestObsSamplingSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shard sweep")
	}
	dir := t.TempDir()
	run := func(shards int, sample float64) map[string]bool {
		path := filepath.Join(dir, "s.ndjson")
		run(t, obsCell(t, shards, obs.Options{EventsFile: path, Filter: "model", Sample: sample}))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := map[string]bool{}
		for _, l := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			lines[l] = true
		}
		return lines
	}
	full := run(1, 0)
	sampled := run(1, 0.2)
	if len(sampled) >= len(full) || len(sampled) == 0 {
		t.Fatalf("sampled %d lines of %d; expected a strict nonempty subset", len(sampled), len(full))
	}
	for l := range sampled {
		if !full[l] {
			t.Fatalf("sampled line not present in the full trace: %s", l)
		}
	}
	if sharded := run(2, 0.2); !reflect.DeepEqual(sharded, sampled) {
		t.Errorf("sampled trace differs across shard counts: %d vs %d lines", len(sharded), len(sampled))
	}
}

// partitionCell is scenarios/linkfail-incast.json with both of leaf0's
// uplinks down from 2 ms to 4 ms: a transient partition, during which
// the spines hold packets for leaf0's hosts with no route to them.
func partitionCell(t *testing.T, shards int) scenario.Scenario {
	sc, err := scenario.Load(filepath.Join("..", "..", "scenarios", "linkfail-incast.json"))
	if err != nil {
		t.Fatal(err)
	}
	down, up := scenario.Duration(2*units.Millisecond), scenario.Duration(4*units.Millisecond)
	sc.Fabric.LinkFaults = []scenario.LinkFault{
		{Link: "leaf0-spine0", At: down, RecoverAt: up},
		{Link: "leaf0-spine1", At: down, RecoverAt: up},
	}
	sc.Shards = shards
	sc.Obs = obs.Options{Counters: true}
	return sc
}

// TestPacketConservation pins the packet-conservation invariant on the
// telemetry counters: every packet handed to a NIC is eventually
// dropped at a switch (by the MMU, at dequeue, or for want of a route),
// consumed by a receiver, or retired at a sender — no packet is created
// or destroyed anywhere else. The partition cells drop packets for want
// of a route.
func TestPacketConservation(t *testing.T) {
	cells := map[string]scenario.Scenario{
		"medium shards=0":    obsCell(t, 0, obs.Options{Counters: true}),
		"medium shards=4":    obsCell(t, 4, obs.Options{Counters: true}),
		"partition shards=0": partitionCell(t, 0),
		"partition shards=2": partitionCell(t, 2),
	}
	for name, sc := range cells {
		res := run(t, sc)
		c := res.Counters
		sent := c["model/data_pkts_sent"] + c["model/ack_pkts_sent"]
		drops := c["model/drops_threshold"] + c["model/drops_nobuffer"] +
			c["model/drops_aqm"] + c["model/drops_afd"] + c["model/drops_dequeue"] +
			c["model/drops_noroute"]
		accounted := drops + c["model/data_pkts_consumed"] + c["model/ack_pkts_retired"]
		if sent == 0 {
			t.Fatalf("%s: no packets sent", name)
		}
		if sent != accounted {
			t.Errorf("%s: conservation violated: sent %d != accounted %d (counters: %v)",
				name, sent, accounted, c)
		}
		// The overlapping tags stay within their parent counts.
		if c["model/retrans_pkts_sent"] > c["model/data_pkts_sent"] {
			t.Errorf("%s: retransmits exceed data sends", name)
		}
		if c["model/drops_unscheduled"] > drops {
			t.Errorf("%s: unscheduled drops exceed total drops", name)
		}
		// The experiment-level drop count and the telemetry counters
		// must agree on every drop.
		if res.Drops != drops {
			t.Errorf("%s: Result.Drops %d != telemetry drops %d", name, res.Drops, drops)
		}
		if strings.HasPrefix(name, "partition") && c["model/drops_noroute"] == 0 {
			t.Errorf("%s: the partition dropped no packet for want of a route", name)
		}
	}
}

// TestEngineCalendarCounters checks the engine's self-observation: with
// counters on, a run reports where its calendar pushes went, serial or
// sharded. Every packet-hop is two events: the sender's serialization
// end, which takes the wheel (or near), and the link delivery, which
// takes the delay line on a serial run whatever the link delay — so a
// 40 us link, beyond the wheel's horizon, leaves far at timer level.
// On a sharded run the mailbox-routed tier links inject their
// deliveries into the calendar at window barriers instead.
func TestEngineCalendarCounters(t *testing.T) {
	run := func(shards int, linkDelay units.Time) (c map[string]int64, hops int64) {
		sc := obsCell(t, shards, obs.Options{Counters: true})
		sc.Fabric.LinkDelay = scenario.Duration(linkDelay)
		res, _, err := scenario.Run(sc)
		if err != nil {
			t.Fatalf("shards=%d delay=%v: %v", shards, linkDelay, err)
		}
		c = res.Counters
		if c["engine/calendar_drained"] == 0 {
			t.Errorf("shards=%d delay=%v: no wheel bucket drained", shards, linkDelay)
		}
		// Every packet crosses one link per NIC send and one per switch
		// transmission (admitted minus discarded at dequeue).
		hops = c["model/data_pkts_sent"] + c["model/ack_pkts_sent"] +
			c["model/admitted_pkts"] - c["model/drops_dequeue"]
		return c, hops
	}
	for _, delay := range []units.Time{10 * units.Microsecond, 40 * units.Microsecond} {
		c, hops := run(0, delay)
		line, wheel, near, far := c["engine/calendar_line"], c["engine/calendar_wheel"], c["engine/calendar_near"], c["engine/calendar_far"]
		if line != hops {
			t.Errorf("serial %v: calendar_line=%d, want one per link delivery (%d)", delay, line, hops)
		}
		if w := wheel + near; w < hops || w > hops+hops/4 {
			t.Errorf("serial %v: wheel+near=%d, want about one push per packet-hop (%d)", delay, w, hops)
		}
		if far >= hops {
			t.Errorf("serial %v: calendar_far=%d for %d packet-hops, want timers only", delay, far, hops)
		}
		if delay == 10*units.Microsecond && c["engine/timer_stale_wakes"] == 0 {
			t.Errorf("serial: no engine/timer_stale_wakes in %v", c)
		}
	}
	c, hops := run(2, 10*units.Microsecond)
	line, boxed := c["engine/calendar_line"], c["engine/mailbox_events"]
	if line == 0 || line+boxed != hops {
		t.Errorf("shards=2: calendar_line=%d + mailbox_events=%d, want host-link and tier-link deliveries summing to %d", line, boxed, hops)
	}
	if w := c["engine/calendar_wheel"] + c["engine/calendar_near"]; w < hops {
		t.Errorf("shards=2: wheel+near=%d, want at least one push per packet-hop (%d)", w, hops)
	}
	if c["engine/timer_stale_wakes"] == 0 {
		t.Errorf("shards=2: no engine/timer_stale_wakes in %v", c)
	}
}
