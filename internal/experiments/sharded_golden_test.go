package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"abm/internal/metrics"
	"abm/internal/scenario"
)

var updateSharded = flag.Bool("update-sharded", false,
	"rewrite testdata/sharded-output.golden from this tree (see capture-sharded.sh)")

// shardedGoldenCells names the shortCells pinned by sharded-output.golden:
// a leaf-spine cell, a multi-tier split and a barrier-scheduled routing
// change.
var shardedGoldenCells = []string{"ABM", "ABM-fattree", "ABM-linkfail"}

// outputDigest is the SHA-256 of a run's flow records, drop counters,
// executed-event count and buffer samples, floats as raw bits.
func outputDigest(res scenario.Result, col *metrics.Collector) string {
	h := sha256.New()
	for _, f := range col.Flows {
		fmt.Fprintf(h, "flow %d %d %d %d %d %d %d %t\n",
			f.ID, f.Class, f.Prio, f.Size, f.Start, f.End, f.Ideal, f.Finished)
	}
	fmt.Fprintf(h, "drops %d %d events %d\n", res.Drops, res.UnscheduledDrops, res.Events)
	for _, x := range col.BufferSamples {
		fmt.Fprintf(h, "%016x\n", math.Float64bits(x))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestShardedOutputGolden pins the sharded engine's output itself, not
// just its invariance across shard counts: a change to the barrier
// merge's tie order that hits every shard count alike passes
// TestShardCountInvariance but fails here. testdata/capture-sharded.sh
// rebuilds the digests from a given commit.
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
	for _, name := range shardedGoldenCells {
		sc, ok := cells[name]
		if !ok {
			t.Fatalf("shortCells has no cell %q", name)
		}
		for _, shards := range []int{1, 2} {
			sc := sc.Clone()
			sc.Shards = shards
			res, col, err := scenario.Run(sc)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			got := outputDigest(res, col)
			if shards == 1 {
				out = append(out, name+"\t"+got)
				if *updateSharded {
					want[name] = got
				}
			}
			if got != want[name] {
				t.Errorf("%s shards=%d: output digest %s, want %s", name, shards, got, want[name])
			}
		}
	}
	if *updateSharded {
		data := "# shortCells name, SHA-256 of its sharded output at seed 42 (outputDigest)\n" +
			strings.Join(out, "\n") + "\n"
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
