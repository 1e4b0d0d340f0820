package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"abm/internal/obs"
)

// TestHistShardInvariance is the histogram determinism golden test: the
// merged histogram snapshots AND the tick-by-tick snapshot NDJSON
// series must be byte-identical at 1, 2 and 4 shards — histograms merge
// by bucket addition, and every recording site is either per-shard
// single-writer or driven from a barrier tick, so shard count must not
// leak into any count.
func TestHistShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shard sweep")
	}
	dir := t.TempDir()
	var refSeries []byte
	var refHists map[string]interface{}
	for _, shards := range []int{1, 2, 4} {
		path := filepath.Join(dir, "snapshots.ndjson")
		res := run(t, obsCell(t, shards, obs.Options{Hists: true, HistFile: path}))
		series, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		hists := make(map[string]interface{}, len(res.Hists))
		for name, s := range res.Hists {
			hists[name] = s
		}
		if shards == 1 {
			refSeries, refHists = series, hists
			if len(series) == 0 {
				t.Fatal("serial run wrote no snapshot series")
			}
			ws, ok := res.Hists["fct_slowdown_websearch"]
			if !ok || ws.Count == 0 {
				t.Fatalf("serial run recorded no web-search slowdowns: %v", res.Hists)
			}
			if qd := res.Hists["queue_delay_ps"]; qd.Count == 0 {
				t.Fatal("serial run recorded no queueing delays")
			}
			if hr := res.Hists["admit_headroom_bytes"]; hr.Count == 0 {
				t.Fatal("serial run recorded no admission headroom")
			}
			continue
		}
		if !reflect.DeepEqual(hists, refHists) {
			t.Errorf("shards=%d merged histograms diverged:\n%v\nwant\n%v", shards, hists, refHists)
		}
		if !bytes.Equal(series, refSeries) {
			t.Errorf("shards=%d snapshot series diverged (%d bytes vs %d)", shards, len(series), len(refSeries))
		}
	}
}
