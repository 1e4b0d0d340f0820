package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"abm/internal/metrics"
	"abm/internal/trace"
	"abm/internal/units"
)

// plannedColumns keeps the flow-trace columns fixed when a flow is
// planned — id, class, prio, size, start, ideal (cut -f1-5,7) — and
// drops the ones the run decides (FCT, slowdown, finished).
func plannedColumns(t *testing.T, flows []metrics.FlowRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteFlows(&buf, flows); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if line == "" {
			continue
		}
		f := strings.Split(strings.TrimSuffix(line, "\n"), "\t")
		out.WriteString(strings.Join(append(f[:5:5], f[6]), "\t"))
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// TestArrivalsGolden pins the workload stream: the planning-time flow
// columns of each spec in testdata/arrivals.golden hash to the value
// captured from the earlier separate live generators (see
// capture-arrivals.sh), on the serial engine and on two shards.
func TestArrivalsGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "arrivals.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 3 {
			t.Fatalf("malformed golden line %q", line)
		}
		spec, want := f[0], f[2]
		dur, err := time.ParseDuration(f[1])
		if err != nil {
			t.Fatal(err)
		}
		n++
		for _, shards := range []int{0, 2} {
			s, err := Load(filepath.Join("..", "..", filepath.FromSlash(spec)))
			if err != nil {
				t.Fatal(err)
			}
			s.Duration = Duration(units.Time(dur.Nanoseconds()) * units.Nanosecond)
			s.Shards = shards
			_, col, err := Run(s)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", spec, shards, err)
			}
			sum := sha256.Sum256(plannedColumns(t, col.Flows))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s shards=%d: planned columns hash %s, want %s", spec, shards, got, want)
			}
		}
	}
	if n < 4 {
		t.Fatalf("golden lists %d specs, want at least 4", n)
	}
}

// TestRunRejectsUnrealizableWorkloads: specs Resolve accepts but whose
// workloads round to nothing on the built fabric are errors from Run,
// not panics.
func TestRunRejectsUnrealizableWorkloads(t *testing.T) {
	twoGroups := Fabric{Spines: 1, Leaves: 2, HostsPerLeaf: 2}
	oneGroup := Fabric{Spines: 1, Leaves: 1, HostsPerLeaf: 4}
	for name, tc := range map[string]struct {
		fabric     Fabric
		spec, want string
	}{
		"request rounds to 0 bytes": {twoGroups,
			`{"workload":{"incast":{"request_frac":1e-9}}}`, "request size"},
		"query gap rounds to 0 ps": {twoGroups,
			`{"workload":{"incast":{"request_frac":0.1,"load":1e9}}}`, "query rate"},
		"long flow rounds to 0 bytes": {twoGroups,
			`{"workload":{"long_flows":{"flow_kb":1e-9}}}`, "long flows need a size"},
		"incast on one edge group": {oneGroup,
			`{"workload":{"incast":{"request_frac":0.3}}}`, "incast needs at least two edge groups"},
		"web search on one edge group": {oneGroup,
			`{"workload":{"load":0.3}}`, "web search needs at least two edge groups"},
	} {
		t.Run(name, func(t *testing.T) {
			s, err := Parse([]byte(tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			s.Fabric = tc.fabric
			s.Duration = Duration(units.Millisecond)
			if _, err := s.Resolve(); err != nil {
				t.Fatalf("Resolve rejects the spec (%v); the case needs one it accepts", err)
			}
			for _, shards := range []int{0, 1} {
				s.Shards = shards
				if _, _, err := Run(s); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("shards=%d: err = %v, want one naming %q", shards, err, tc.want)
				}
			}
		})
	}
}

// TestBufferSampler: the run's periodic sample records the worst-switch
// occupancy every sampler interval through the drain, identically on
// both engines.
func TestBufferSampler(t *testing.T) {
	var ref []float64
	for _, shards := range []int{0, 2} {
		s := Scenario{
			Seed:     3,
			Duration: Duration(2 * units.Millisecond),
			Shards:   shards,
			Fabric:   Fabric{Spines: 2, Leaves: 2, HostsPerLeaf: 4},
			Workload: Workload{Load: 0.5, Incast: Incast{RequestFrac: 0.3}},
		}
		_, col, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		samples := col.BufferSamples
		want := int((2*units.Millisecond + drainBound) / samplerInterval)
		if len(samples) != want {
			t.Fatalf("shards=%d: %d samples, want one per %v through the drain (%d)", shards, len(samples), samplerInterval, want)
		}
		if cap(samples) != len(samples) {
			t.Fatalf("shards=%d: sample capacity %d, want exactly the %d Run sizes up front", shards, cap(samples), len(samples))
		}
		var busy bool
		for _, v := range samples {
			if v < 0 || v > 1.2 {
				t.Fatalf("shards=%d: occupancy fraction %v out of range", shards, v)
			}
			busy = busy || v > 0
		}
		if !busy {
			t.Fatalf("shards=%d: no occupancy sampled under load", shards)
		}
		if ref == nil {
			ref = samples
		} else if !slices.Equal(ref, samples) {
			t.Fatal("buffer samples differ between the serial and sharded engines")
		}
	}
}
