package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"abm/internal/obs"
	"abm/internal/units"
)

// TestCountersGolden pins the model/ counter totals of every committed
// scenario, shortened to 2ms, on the serial engine and on two shards,
// against testdata/counters.golden (see capture-counters.sh). The
// counters are read from the components that keep them, so a change to
// where a count is kept must leave every value, and the set of non-zero
// names, exactly as captured.
func TestCountersGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "counters.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{} // "spec shards" -> "name\tvalue" lines in file order
	var cells []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			t.Fatalf("malformed golden line %q", line)
		}
		cell := f[0] + " " + f[1]
		if want[cell] == nil {
			cells = append(cells, cell)
		}
		want[cell] = append(want[cell], f[2]+"\t"+f[3])
	}
	specs, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		if want["scenarios/"+filepath.Base(spec)+" 0"] == nil {
			t.Errorf("golden has no serial entry for %s", spec)
		}
	}
	for _, cell := range cells {
		spec, shards, _ := strings.Cut(cell, " ")
		s, err := Load(filepath.Join("..", "..", filepath.FromSlash(spec)))
		if err != nil {
			t.Fatal(err)
		}
		s.Duration = Duration(2 * units.Millisecond)
		if s.Shards, err = strconv.Atoi(shards); err != nil {
			t.Fatal(err)
		}
		s.Obs = obs.Options{Counters: true}
		res, _, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		var got []string
		for k, v := range res.Counters {
			if strings.HasPrefix(k, "model/") {
				got = append(got, fmt.Sprintf("%s\t%d", k, v))
			}
		}
		sort.Strings(got)
		if g, w := strings.Join(got, "\n"), strings.Join(want[cell], "\n"); g != w {
			t.Errorf("%s: model counters\n%s\nwant\n%s", cell, g, w)
		}
	}
}
