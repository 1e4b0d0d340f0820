package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"abm/internal/obs"
	"abm/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestResolveIdempotent: resolving an already-resolved scenario is a
// no-op — the contract that lets runner job records embed resolved
// specs and re-run them through the same pipeline.
func TestResolveIdempotent(t *testing.T) {
	for name, s := range map[string]Scenario{
		"zero": {},
		"fig6-like": {
			Seed: 42,
			Workload: Workload{
				Load: 0.6, CC: "cubic",
				Incast: Incast{RequestFrac: 0.3},
			},
			Switch: Switch{BM: "ABM"},
		},
		"mixed-rate": {
			Fabric: Fabric{Spines: 2, Leaves: 4, HostsPerLeaf: 8, LinkGbps: 10, UplinkGbps: 25},
			Buffer: Buffer{QueuesPerPort: 4, Alphas: []float64{2, 1, 0.5, 0.25}},
			Switch: Switch{BM: "DT", Scheduler: "dwrr"},
		},
		"abm-approx": {
			Switch: Switch{BM: "ABM-approx", UpdateInterval: Duration(800 * units.Microsecond)},
			Workload: Workload{MixedCC: []CCAssignment{
				{CC: "cubic", Prio: 0}, {CC: "dctcp", Prio: 1},
			}, Load: 0.4},
			Buffer: Buffer{QueuesPerPort: 2},
		},
	} {
		t.Run(name, func(t *testing.T) {
			r1, err := s.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			r2, err := r1.Resolve()
			if err != nil {
				t.Fatalf("resolving the resolved spec: %v", err)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("Resolve not idempotent:\nfirst  %+v\nsecond %+v", r1, r2)
			}
		})
	}
}

// TestResolveDoesNotMutateInput guards the documented value semantics:
// callers keep the sparse spec they wrote.
func TestResolveDoesNotMutateInput(t *testing.T) {
	s := Scenario{Switch: Switch{BM: "ABM"}}
	if _, err := s.Resolve(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, Scenario{Switch: Switch{BM: "ABM"}}) {
		t.Fatalf("Resolve mutated its receiver: %+v", s)
	}
}

// TestResolveGolden pins the fully-explicit form of the zero scenario
// (the paper's §4.1 defaults) and of an ABM cell. Any change to a
// default is a behavior change and must show up in this diff.
func TestResolveGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		spec   Scenario
	}{
		{"default-resolved.json", Scenario{}},
		{"abm-incast-resolved.json", Scenario{
			Name:   "abm-incast",
			Seed:   42,
			Switch: Switch{BM: "ABM"},
			Workload: Workload{
				Load: 0.6, CC: "cubic",
				Incast: Incast{RequestFrac: 0.3},
			},
		}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			r, err := tc.spec.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("resolved scenario drifted from %s:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// TestJSONRoundTrip: encode → decode → Resolve lands on the same
// resolved spec, both from the sparse form and from the resolved form.
func TestJSONRoundTrip(t *testing.T) {
	s := Scenario{
		Name: "rt",
		Seed: 7,
		Fabric: Fabric{Spines: 4, Leaves: 4, HostsPerLeaf: 8, UplinkGbps: 25,
			LinkDelay: Duration(4 * units.Microsecond)},
		Buffer:   Buffer{QueuesPerPort: 2, Alphas: []float64{1, 0.25}},
		Switch:   Switch{BM: "IB", Scheduler: "strict"},
		Workload: Workload{Load: 0.2, CC: "dctcp", Incast: Incast{RequestFrac: 0.1}},
		Duration: Duration(3 * units.Millisecond),
	}
	want, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range []Scenario{s, want} {
		data, err := from.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip drifted:\ngot  %+v\nwant %+v", got, want)
		}
	}
}

// TestDurationJSON: both encodings are exact, including sub-nanosecond
// picosecond values that have no Go duration representation.
func TestDurationJSON(t *testing.T) {
	for _, tc := range []struct {
		d    Duration
		want string
	}{
		{Duration(25 * units.Millisecond), `"25ms"`},
		{Duration(800 * units.Microsecond), `"800µs"`},
		{Duration(1500), `1500`}, // 1.5ns in ps: not duration-representable
	} {
		data, err := json.Marshal(tc.d)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != tc.want {
			t.Errorf("marshal %d ps = %s, want %s", int64(tc.d), data, tc.want)
		}
		var back Duration
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != tc.d {
			t.Errorf("round trip %d ps → %d ps", int64(tc.d), int64(back))
		}
	}
	var fromString Duration
	if err := json.Unmarshal([]byte(`"10us"`), &fromString); err != nil {
		t.Fatal(err)
	}
	if fromString.Time() != 10*units.Microsecond {
		t.Errorf(`"10us" = %d ps, want %d`, int64(fromString), int64(10*units.Microsecond))
	}
}

// TestParseRejectsUnknownFields: typos in hand-written spec files must
// fail loudly, not silently default.
func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"fabric": {"spine_count": 4}}`)); err == nil {
		t.Fatal("expected unknown-field error")
	}
	if _, err := Parse([]byte(`{"seed": 1, "bogus": true}`)); err == nil {
		t.Fatal("expected unknown-field error")
	}
}

// TestResolveRejects covers the validation surface: one bad spec per
// rule, each naming the offending field in its error.
func TestResolveRejects(t *testing.T) {
	frac := 1.5
	for name, tc := range map[string]struct {
		spec Scenario
		want string
	}{
		"unknown bm":        {Scenario{Switch: Switch{BM: "bogus"}}, "unknown policy"},
		"unknown scheduler": {Scenario{Switch: Switch{Scheduler: "fifo"}}, "scheduler"},
		"abm-approx needs interval": {
			Scenario{Switch: Switch{BM: "ABM-approx"}}, "update interval"},
		"headroom over 1": {
			Scenario{Buffer: Buffer{HeadroomFrac: &frac}}, "headroom_frac"},
		"load over 1": {
			Scenario{Workload: Workload{Load: 1.2}}, "load"},
		"unknown background": {
			Scenario{Workload: Workload{Load: 0.4, Background: "uniform"}}, "background"},
		"unknown cc": {
			Scenario{Workload: Workload{Load: 0.4, CC: "bbr3"}}, "reno"},
		"unknown incast cc": {
			Scenario{Workload: Workload{Incast: Incast{RequestFrac: 0.3, CC: "bbr3"}}}, "bbr3"},
		"unknown mixed cc": {
			Scenario{Workload: Workload{Load: 0.4,
				MixedCC: []CCAssignment{{CC: "bbr3", Prio: 0}}}}, "reno"},
		"trimming with ecn cc": {
			Scenario{Switch: Switch{Trimming: true},
				Workload: Workload{Load: 0.4, CC: "dctcp"}}, "trimming"},
		"obs sample range": {
			Scenario{Obs: obs.Options{Sample: 2}}, "sample"},
		"obs filter": {
			Scenario{Obs: obs.Options{Filter: "bogus-kind"}}, "bogus-kind"},
		"hybrid with shards": {
			Scenario{Shards: 2, Hybrid: Hybrid{Enabled: true}}, "serial"},
		"hybrid guard band over 1": {
			Scenario{Hybrid: Hybrid{Enabled: true, GuardBandFrac: 1.5}}, "guard_band_frac"},
		"long-flow count range": {
			Scenario{Workload: Workload{LongFlows: LongFlows{FlowKB: 100, Count: 9999}}}, "count"},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := tc.spec.Resolve()
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestResolveSizeLimits: Resolve refuses fabrics and queue counts past
// what the simulator can number from the spec's arithmetic alone, so a
// hostile spec is an error instead of a graph build that exhausts
// memory, and accepts the largest spec within each limit. want "" means
// the spec resolves.
func TestResolveSizeLimits(t *testing.T) {
	for name, tc := range map[string]struct{ spec, want string }{
		"too many hosts": {
			`{"fabric":{"leaves":20000,"hosts_per_leaf":1000}}`, "hosts"},
		"hosts at the limit": {
			`{"fabric":{"spines":1,"leaves":100,"hosts_per_leaf":100}}`, ""},
		"too many links": {
			`{"fabric":{"spines":7000,"leaves":10,"hosts_per_leaf":1}}`, "links"},
		"leaf radix": {
			`{"fabric":{"spines":30000,"leaves":2,"hosts_per_leaf":3000}}`, "port limit"},
		"spine radix": {
			`{"fabric":{"spines":1,"leaves":40000,"hosts_per_leaf":1}}`, "port limit"},
		"dimension product overflows": {
			`{"fabric":{"spines":1,"leaves":4611686018427387904,"hosts_per_leaf":4}}`, "port limit"},
		"hosts_per_leaf at int max": {
			`{"fabric":{"hosts_per_leaf":9223372036854775807}}`, "port limit"},
		"fat-tree k over radix": {
			`{"fabric":{"topology":"fattree","k":4611686018427387904}}`, "port switch limit"},
		"fat-tree too many hosts": {
			`{"fabric":{"topology":"fattree","k":36}}`, "hosts"},
		"fat-tree route tables": {
			`{"fabric":{"topology":"fattree","k":32}}`, "route tables"},
		"largest fat tree": {
			`{"fabric":{"topology":"fattree","k":30}}`, ""},
		"leaf–spine route tables": {
			`{"fabric":{"spines":1,"leaves":2048,"hosts_per_leaf":1}}`, "route tables"},
		"too many queues": {
			`{"buffer":{"queues_per_port":257}}`, "queues_per_port"},
		"queues at the limit": {
			`{"buffer":{"queues_per_port":256}}`, ""},
	} {
		t.Run(name, func(t *testing.T) {
			s, err := Parse([]byte(tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.Resolve()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Resolve rejects a spec within the limits: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// A disabled hybrid block must stay all-zero through Resolve (so it is
// omitted from resolved specs), while an enabled one gets the defaults.
func TestResolveHybrid(t *testing.T) {
	d := Scenario{}.MustResolve()
	if d.Hybrid != (Hybrid{}) {
		t.Errorf("disabled hybrid resolved to %+v, want zero", d.Hybrid)
	}
	r := Scenario{Hybrid: Hybrid{Enabled: true}}.MustResolve()
	want := Hybrid{Enabled: true, GuardBandFrac: 0.5, SteadyRTTs: 8, EpochDt: 8 * defaultLinkDelay}
	if r.Hybrid != want {
		t.Errorf("enabled hybrid resolved to %+v, want %+v", r.Hybrid, want)
	}
}

// TestResolveDerivations checks the cross-field rules: INT forced on by
// the CC mix, headroom keyed on the BM family, alpha expansion, incast
// CC inheritance.
func TestResolveDerivations(t *testing.T) {
	r, err := Scenario{
		Switch:   Switch{BM: "ABM"},
		Buffer:   Buffer{QueuesPerPort: 4, Alphas: []float64{2}},
		Workload: Workload{Load: 0.4, CC: "powertcp", Incast: Incast{RequestFrac: 0.3}},
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Switch.EnableINT {
		t.Error("powertcp did not force EnableINT")
	}
	if got := *r.Buffer.HeadroomFrac; got != 1.0/8 {
		t.Errorf("ABM headroom = %g, want 1/8", got)
	}
	if want := []float64{2, 2, 2, 2}; !reflect.DeepEqual(r.Buffer.Alphas, want) {
		t.Errorf("single alpha not replicated: %v", r.Buffer.Alphas)
	}
	if r.Workload.Incast.CC != "powertcp" {
		t.Errorf("incast CC = %q, want inherited powertcp", r.Workload.Incast.CC)
	}

	r, err = Scenario{Switch: Switch{BM: "DT"}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if got := *r.Buffer.HeadroomFrac; got != 0 {
		t.Errorf("DT headroom = %g, want 0", got)
	}
	if r.Switch.EnableINT {
		t.Error("cubic-only mix enabled INT")
	}
}

// TestCloneNoAliasing: mutating a clone's slices and headroom pointer
// must not write through to the original — the property sweep axes
// depend on.
func TestCloneNoAliasing(t *testing.T) {
	frac := 0.25
	s := Scenario{
		Buffer:   Buffer{HeadroomFrac: &frac, Alphas: []float64{1, 2}},
		Workload: Workload{MixedCC: []CCAssignment{{CC: "cubic", Prio: 0}}},
	}
	c := s.Clone()
	*c.Buffer.HeadroomFrac = 0.5
	c.Buffer.Alphas[0] = 9
	c.Workload.MixedCC[0].CC = "dctcp"
	if *s.Buffer.HeadroomFrac != 0.25 || s.Buffer.Alphas[0] != 1 || s.Workload.MixedCC[0].CC != "cubic" {
		t.Fatalf("Clone aliases its source: %+v", s)
	}
}

func TestOversubscription(t *testing.T) {
	uniform := Fabric{Spines: 2, Leaves: 2, HostsPerLeaf: 8, LinkGbps: 10}
	if got := uniform.Oversubscription(); got != 4 {
		t.Errorf("2x2x8 uniform = %g:1, want 4:1", got)
	}
	mixed := Fabric{Spines: 2, Leaves: 2, HostsPerLeaf: 8, LinkGbps: 10, UplinkGbps: 25}
	if got := mixed.Oversubscription(); got != 1.6 {
		t.Errorf("25G uplinks = %g:1, want 1.6:1", got)
	}
}

// TestCommittedScenarios resolves every scenario file shipped in the
// repo (scenarios/ and examples/*/scenario.json): each must parse, pass
// validation, and resolve idempotently.
func TestCommittedScenarios(t *testing.T) {
	var paths []string
	for _, glob := range []string{
		filepath.Join("..", "..", "scenarios", "*.json"),
		filepath.Join("..", "..", "examples", "*", "scenario.json"),
	} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) < 4 {
		t.Fatalf("expected the committed scenario files, found %v", paths)
	}
	for _, path := range paths {
		t.Run(filepath.Base(filepath.Dir(path))+"/"+filepath.Base(path), func(t *testing.T) {
			s, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			r2, err := r.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r, r2) {
				t.Fatal("resolution not idempotent")
			}
		})
	}
}
