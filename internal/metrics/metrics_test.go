package metrics

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"abm/internal/units"
)

func TestPercentileBasics(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	if got := Percentile(vals, 50); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := Percentile(vals, 100); got != 5 {
		t.Fatalf("p100 = %v, want 5", got)
	}
	if got := Percentile(vals, 0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := Percentile(nil, 99); got != 0 {
		t.Fatalf("empty = %v, want 0", got)
	}
	// Input must not be mutated.
	if vals[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

// Property: the percentile always equals an element of the input, and
// p99 >= p50 >= p1.
func TestPercentileProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%100) + 1
		vals := make([]float64, count)
		for i := range vals {
			vals[i] = rng.Float64() * 1000
		}
		p1, p50, p99 := Percentile(vals, 1), Percentile(vals, 50), Percentile(vals, 99)
		if !(p1 <= p50 && p50 <= p99) {
			return false
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		found := func(x float64) bool {
			for _, v := range sorted {
				if v == x {
					return true
				}
			}
			return false
		}
		return found(p1) && found(p50) && found(p99)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	// 100 values 1..100: p99 must be 99, p99.9 must be 100.
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if got := Percentile(vals, 99); got != 99 {
		t.Fatalf("p99 = %v, want 99", got)
	}
	if got := Percentile(vals, 99.9); got != 100 {
		t.Fatalf("p99.9 = %v, want 100", got)
	}
}

func TestSlowdown(t *testing.T) {
	r := FlowRecord{Start: 0, End: 100, Ideal: 20, Finished: true}
	if got := r.Slowdown(); got != 5 {
		t.Fatalf("slowdown = %v, want 5", got)
	}
	bad := FlowRecord{Ideal: 0}
	if bad.Slowdown() != 0 {
		t.Fatal("zero-ideal slowdown must be 0")
	}
}

func TestThroughput(t *testing.T) {
	r := FlowRecord{Size: 1250, Start: 0, End: units.Microsecond}
	if got := r.Throughput(); got != 10*units.GigabitPerSec {
		t.Fatalf("throughput = %v, want 10Gbps", got)
	}
}

func collectorFixture() *Collector {
	c := &Collector{}
	// Short web-search flows with slowdowns 1..10.
	for i := 1; i <= 10; i++ {
		c.AddFlow(FlowRecord{
			ID: uint64(i), Class: ClassWebSearch, Size: 50 * units.Kilobyte,
			Start: 0, End: units.Time(i) * units.Microsecond, Ideal: units.Microsecond,
			Finished: true,
		})
	}
	// A long web-search flow at half line rate.
	c.AddFlow(FlowRecord{
		ID: 11, Class: ClassWebSearch, Size: units.Megabyte,
		Start: 0, End: 1600 * units.Microsecond, Ideal: 850 * units.Microsecond,
		Finished: true,
	})
	// Incast flows.
	for i := 0; i < 5; i++ {
		c.AddFlow(FlowRecord{
			ID: uint64(20 + i), Class: ClassIncast, Size: 30 * units.Kilobyte,
			Start: 0, End: units.Time(40+i) * units.Microsecond, Ideal: 2 * units.Microsecond,
			Finished: true,
		})
	}
	// An unfinished flow must be excluded everywhere.
	c.AddFlow(FlowRecord{ID: 99, Class: ClassIncast, Size: units.Kilobyte, Finished: false})
	return c
}

func TestFilters(t *testing.T) {
	c := collectorFixture()
	if got := len(c.Filter(ByClass(ClassIncast))); got != 5 {
		t.Fatalf("incast filter: %d, want 5 (unfinished excluded)", got)
	}
	if got := len(c.Filter(ShortOf(ClassWebSearch))); got != 10 {
		t.Fatalf("short filter: %d, want 10", got)
	}
	if got := len(c.Filter(LongOf(ClassWebSearch))); got != 1 {
		t.Fatalf("long filter: %d, want 1", got)
	}
	if got := len(c.Filter(nil)); got != 16 {
		t.Fatalf("nil filter: %d, want all finished (16)", got)
	}
	if got := len(c.Filter(ByPrio(3))); got != 0 {
		t.Fatalf("prio filter: %d, want 0", got)
	}
}

func TestSummarize(t *testing.T) {
	c := collectorFixture()
	c.SampleBuffer(0.2)
	c.SampleBuffer(0.9)
	s := c.Summarize(10 * units.GigabitPerSec)
	if s.P99ShortSlowdown != 10 {
		t.Fatalf("p99 short = %v, want 10", s.P99ShortSlowdown)
	}
	if s.P99IncastSlowdown < 20 {
		t.Fatalf("p99 incast = %v, want ~22", s.P99IncastSlowdown)
	}
	if s.P99BufferFrac != 0.9 {
		t.Fatalf("p99 buffer = %v", s.P99BufferFrac)
	}
	if s.Unfinished != 1 {
		t.Fatalf("unfinished = %d, want 1", s.Unfinished)
	}
	// The long flow: 1MB in 1.6ms = 5 Gb/s = 0.5 of line rate.
	if s.AvgThroughputFrac < 0.49 || s.AvgThroughputFrac > 0.51 {
		t.Fatalf("avg throughput frac = %v, want ~0.5", s.AvgThroughputFrac)
	}
}

// Property: Summarize, which sorts each population once in place,
// equals the per-field Filter + Percentile computation exactly, and
// leaves the collector as it found it.
func TestSummarizeMatchesPercentiles(t *testing.T) {
	const lineRate = 10 * units.GigabitPerSec
	f := func(seed int64, nFlows, nSamples uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := &Collector{}
		for i := 0; i < int(nFlows); i++ {
			start := units.Time(rng.Intn(1000)) * units.Microsecond
			c.AddFlow(FlowRecord{
				ID:       uint64(i),
				Class:    FlowClass(rng.Intn(4)),
				Size:     units.ByteCount(1 + rng.Intn(int(2*ShortFlowCut))),
				Start:    start,
				End:      start + units.Time(1+rng.Intn(5000))*units.Microsecond,
				Ideal:    units.Time(rng.Intn(200)) * units.Microsecond, // 0 sometimes
				Finished: rng.Intn(8) != 0,
			})
		}
		for i := 0; i < int(nSamples); i++ {
			c.SampleBuffer(float64(rng.Intn(5)) / 4) // repeated values
		}
		flows := append([]FlowRecord(nil), c.Flows...)
		samples := append([]float64(nil), c.BufferSamples...)

		short := c.Filter(func(r FlowRecord) bool { return r.Class == ClassWebSearch && r.Size <= ShortFlowCut })
		want := Summary{
			P99IncastSlowdown:    Percentile(c.Filter(ByClass(ClassIncast)), 99),
			P99ShortSlowdown:     Percentile(short, 99),
			P999ShortSlowdown:    Percentile(short, 99.9),
			P999AllShortSlowdown: Percentile(c.Filter(func(r FlowRecord) bool { return r.Size <= ShortFlowCut }), 99.9),
			MedianLongSlowdown:   Percentile(c.Filter(LongOf(ClassWebSearch)), 50),
			P99BufferFrac:        Percentile(c.BufferSamples, 99),
			AvgThroughputFrac:    c.AvgThroughputFrac(ClassWebSearch, lineRate),
			Flows:                len(c.Flows),
			Unfinished:           len(c.Flows) - c.FinishedCount(),
		}
		if got := c.Summarize(lineRate); got != want {
			t.Logf("seed %d: Summarize %+v, want %+v", seed, got, want)
			return false
		}
		for i := range flows {
			if c.Flows[i] != flows[i] {
				return false
			}
		}
		for i := range samples {
			if c.BufferSamples[i] != samples[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean must be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("mean = %v", got)
	}
}

func TestClassString(t *testing.T) {
	if ClassWebSearch.String() != "websearch" || ClassIncast.String() != "incast" || ClassOther.String() != "other" {
		t.Fatal("class strings wrong")
	}
}
