package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fuzzable reports whether the harness resolves a spec. Resolve
// refuses fabrics too large to build by itself; this is only a speed
// cap. A fabric near those limits takes up to a second to resolve (and
// each link fault a scan of every link), which would slow the fuzzer
// without reaching any validation a small fabric does not.
func fuzzable(s Scenario) bool {
	f := s.Fabric
	return f.K <= 16 && f.Spines <= 64 && f.Leaves <= 64 && len(f.LinkFaults) <= 64
}

// FuzzScenarioResolve checks the one defaults pass on arbitrary JSON:
// Parse never panics, Resolve of a parsed spec never panics, resolving
// a resolved spec changes nothing, and the resolved JSON goes through
// Parse and Resolve back to the identical bytes.
func FuzzScenarioResolve(f *testing.F) {
	for _, pattern := range []string{
		filepath.Join("..", "..", "scenarios", "*.json"),
		filepath.Join("..", "..", "examples", "*", "scenario.json"),
		filepath.Join("testdata", "*.json"),
	} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	// Edges the committed specs do not reach: sentinel and negative
	// values, durations at the int64 limits, link faults on a fat tree.
	for _, spec := range []string{
		`{}`,
		`{"seed":-1,"shards":-3,"duration":-5,"fabric":{"link_delay":9223372036854775807}}`,
		`{"duration":"2562047h47m16.854775s","buffer":{"headroom_frac":-0,"alphas":[0,-1,2],"queues_per_port":2}}`,
		`{"fabric":{"topology":"fattree","k":4,"link_faults":[{"link":"edge0-agg1","at":"1ms","flaps":2,"period":"1ms"}]}}`,
		`{"switch":{"bm":"ABM-approx","update_interval":"1us"},"workload":{"load":0,"mixed_cc":[{"cc":"bogus","prio":1}],"long_flows":{"flow_kb":1,"stride":-1}},"hybrid":{"enabled":true}}`,
	} {
		f.Add([]byte(spec))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil || !fuzzable(s) {
			return
		}
		r, err := s.Resolve()
		if err != nil {
			return
		}
		want, err := r.Marshal()
		if err != nil {
			t.Fatalf("marshal resolved: %v", err)
		}
		again, err := r.Resolve()
		if err != nil {
			t.Fatalf("resolving a resolved spec failed: %v\n%s", err, want)
		}
		if got, _ := again.Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("Resolve not idempotent:\n%s\nvs\n%s", want, got)
		}
		parsed, err := Parse(want)
		if err != nil {
			t.Fatalf("resolved JSON does not parse: %v\n%s", err, want)
		}
		round, err := parsed.Resolve()
		if err != nil {
			t.Fatalf("resolved JSON does not resolve: %v\n%s", err, want)
		}
		if got, _ := round.Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("resolved JSON does not round-trip:\n%s\nvs\n%s", want, got)
		}
	})
}
