package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"abm/internal/metrics"
	"abm/internal/scenario"
	"abm/internal/units"
)

var updateSharded = flag.Bool("update-sharded", false,
	"rewrite testdata/sharded-output.golden from this tree (see capture-sharded.sh)")

// shardedGoldenCells names the shortCells pinned by sharded-output.golden:
// a leaf-spine cell, a multi-tier split and a barrier-scheduled routing
// change.
var shardedGoldenCells = []string{"ABM", "ABM-fattree", "ABM-linkfail"}

// outputDigest is the SHA-256 of a run's flow records, drop counters,
// executed-event count (when withEvents is set) and buffer samples,
// floats as raw bits.
func outputDigest(res scenario.Result, col *metrics.Collector, withEvents bool) string {
	h := sha256.New()
	for _, f := range col.Flows {
		fmt.Fprintf(h, "flow %d %d %d %d %d %d %d %t\n",
			f.ID, f.Class, f.Prio, f.Size, f.Start, f.End, f.Ideal, f.Finished)
	}
	if withEvents {
		fmt.Fprintf(h, "drops %d %d events %d\n", res.Drops, res.UnscheduledDrops, res.Events)
	} else {
		fmt.Fprintf(h, "drops %d %d\n", res.Drops, res.UnscheduledDrops)
	}
	for _, x := range col.BufferSamples {
		fmt.Fprintf(h, "%016x\n", math.Float64bits(x))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// barrierEvents counts what a run executes at window barriers rather
// than as calendar events: one buffer sample every 100 us up to the
// end of the 500 ms drain, and one link event per fault transition.
func barrierEvents(r scenario.Scenario) uint64 {
	n := uint64((r.Duration.Time() + 500*units.Millisecond) / (100 * units.Microsecond))
	for _, lf := range r.Fabric.LinkFaults {
		switch {
		case lf.Flaps > 0:
			n += 2 * uint64(lf.Flaps)
		case lf.RecoverAt > 0:
			n += 2
		default:
			n++
		}
	}
	return n
}

// TestShardedOutputGolden pins the engine's output itself, not just its
// invariance across shard counts: a change to the barrier merge's tie
// order that hits every shard count alike passes
// TestShardCountInvariance but fails here. The "/serial" rows pin the
// shards-0 run (one shard, direct tier links), whose tie order differs,
// so that a sampler or fault-ordering shift there fails too. Their
// digest leaves out the event count; the row's third field is instead
// the count the capture commit executed, when the sample and the link
// events were still calendar events, and this tree must execute exactly
// that many fewer. testdata/capture-sharded.sh rebuilds the golden from
// a given commit.
func TestShardedOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shard sweep")
	}
	path := filepath.Join("testdata", "sharded-output.golden")
	want := map[string]string{}
	if !*updateSharded {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			name, sum, ok := strings.Cut(line, "\t")
			if !ok {
				t.Fatalf("malformed golden line %q", line)
			}
			want[name] = sum
		}
	}
	cells := map[string]scenario.Scenario{}
	for _, nc := range shortCells(t) {
		cells[nc.name] = nc.sc
	}
	var out []string
	for _, shards := range []int{1, 2, 0} {
		for _, name := range shardedGoldenCells {
			sc, ok := cells[name]
			if !ok {
				t.Fatalf("shortCells has no cell %q", name)
			}
			sc = sc.Clone()
			sc.Shards = shards
			res, col, err := scenario.Run(sc)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			key, got := name, outputDigest(res, col, shards > 0)
			line := got
			if shards == 0 {
				key += "/serial"
				line += fmt.Sprintf("\t%d", res.Events)
			}
			if shards <= 1 {
				out = append(out, key+"\t"+line)
				if *updateSharded {
					want[key] = line
				}
			}
			wantSum, events, _ := strings.Cut(want[key], "\t")
			if got != wantSum {
				t.Errorf("%s shards=%d: output digest %s, want %s", name, shards, got, wantSum)
			}
			if shards == 0 && !*updateSharded {
				capture, err := strconv.ParseUint(events, 10, 64)
				if err != nil || res.Events+barrierEvents(res.Scenario) != capture {
					t.Errorf("%s: %d events + %d barrier events, want the capture's %q",
						key, res.Events, barrierEvents(res.Scenario), events)
				}
			}
		}
	}
	if *updateSharded {
		data := "# shortCells name, SHA-256 of its output at seed 42 (outputDigest); /serial rows at shards 0,\n" +
			"# without the event count in the digest and with the capture's executed events after it\n" +
			strings.Join(out, "\n") + "\n"
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
