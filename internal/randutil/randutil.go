// Package randutil provides the random distributions used by the
// workload generators: exponential inter-arrival times for Poisson
// processes and empirical CDFs for flow-size distributions such as the
// web-search workload.
package randutil

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"abm/internal/units"
)

// splitMixGamma is the golden-ratio increment of the SplitMix64
// sequence (Steele, Lea & Flood, OOPSLA 2014).
const splitMixGamma = 0x9e3779b97f4a7c15

// SplitMix64 returns the index-th output of the SplitMix64 pseudo-random
// sequence seeded with seed. Outputs for distinct (seed, index) pairs
// are statistically independent, which makes the function the standard
// way to derive per-job seeds from one plan seed: the derivation depends
// only on the job's position, never on scheduling order or worker count.
func SplitMix64(seed, index uint64) uint64 {
	z := seed + (index+1)*splitMixGamma
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed maps one base seed and a job index to a positive int64
// simulation seed via SplitMix64.
func DeriveSeed(seed int64, index int) int64 {
	v := int64(SplitMix64(uint64(seed), uint64(index)) &^ (1 << 63))
	if v == 0 {
		v = 1
	}
	return v
}

// Exponential samples an exponentially distributed duration with the
// given mean. It panics on a non-positive mean.
func Exponential(rng *rand.Rand, mean units.Time) units.Time {
	if mean <= 0 {
		panic("randutil: exponential mean must be positive")
	}
	x := rng.ExpFloat64() * float64(mean)
	if x > math.MaxInt64/2 {
		x = math.MaxInt64 / 2
	}
	return units.Time(x)
}

// CDFPoint is one step of an empirical cumulative distribution: value v
// has cumulative probability P.
type CDFPoint struct {
	Value float64
	P     float64
}

// EmpiricalCDF samples from a piecewise-linear empirical CDF, the
// standard way datacenter simulators encode measured flow-size
// distributions.
type EmpiricalCDF struct {
	points []CDFPoint
	mean   float64
}

// NewEmpiricalCDF validates and builds a CDF. Points must be sorted by
// value, have nondecreasing probabilities, and end at P=1.
func NewEmpiricalCDF(points []CDFPoint) (*EmpiricalCDF, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("randutil: empty CDF")
	}
	for i, pt := range points {
		if pt.P < 0 || pt.P > 1 {
			return nil, fmt.Errorf("randutil: probability %v out of range at %d", pt.P, i)
		}
		if pt.Value < 0 {
			return nil, fmt.Errorf("randutil: negative value %v at %d", pt.Value, i)
		}
		if i > 0 {
			if pt.Value < points[i-1].Value {
				return nil, fmt.Errorf("randutil: values not sorted at %d", i)
			}
			if pt.P < points[i-1].P {
				return nil, fmt.Errorf("randutil: probabilities decrease at %d", i)
			}
		}
	}
	if last := points[len(points)-1].P; last != 1 {
		return nil, fmt.Errorf("randutil: CDF must end at 1, got %v", last)
	}
	c := &EmpiricalCDF{points: append([]CDFPoint(nil), points...)}
	c.mean = c.computeMean()
	return c, nil
}

// MustEmpiricalCDF is NewEmpiricalCDF that panics on error; used for
// compile-time-constant distributions.
func MustEmpiricalCDF(points []CDFPoint) *EmpiricalCDF {
	c, err := NewEmpiricalCDF(points)
	if err != nil {
		panic(err)
	}
	return c
}

// computeMean integrates the piecewise-linear inverse CDF.
func (c *EmpiricalCDF) computeMean() float64 {
	var mean float64
	prev := CDFPoint{Value: c.points[0].Value, P: 0}
	for _, pt := range c.points {
		dp := pt.P - prev.P
		if dp > 0 {
			mean += float64(dp * (prev.Value + pt.Value) / 2)
		}
		prev = pt
	}
	return mean
}

// Mean returns the distribution mean.
func (c *EmpiricalCDF) Mean() float64 { return c.mean }

// Min returns the smallest value in the support.
func (c *EmpiricalCDF) Min() float64 { return c.points[0].Value }

// Max returns the largest value in the support.
func (c *EmpiricalCDF) Max() float64 { return c.points[len(c.points)-1].Value }

// Sample draws one value by inverse-transform sampling with linear
// interpolation between CDF points.
func (c *EmpiricalCDF) Sample(rng *rand.Rand) float64 {
	u := float64(rng.Float64())
	i := sort.Search(len(c.points), func(i int) bool { return c.points[i].P >= u })
	if i == 0 {
		return c.points[0].Value
	}
	if i >= len(c.points) {
		return c.points[len(c.points)-1].Value
	}
	lo, hi := c.points[i-1], c.points[i]
	if hi.P == lo.P {
		return hi.Value
	}
	frac := (u - lo.P) / (hi.P - lo.P)
	return lo.Value + float64(frac*(hi.Value-lo.Value))
}

// SampleBytes draws a flow size in bytes, at least 1.
func (c *EmpiricalCDF) SampleBytes(rng *rand.Rand) units.ByteCount {
	v := units.ByteCount(math.Round(c.Sample(rng)))
	if v < 1 {
		v = 1
	}
	return v
}

// WebSearch is the web-search flow-size distribution from the DCTCP
// measurement study, as distributed with the HPCC/PowerTCP/ABM
// artifacts: heavy-tailed, with roughly half the flows under 100 KB and
// a mean around 1.6 MB. Values are bytes.
var WebSearch = MustEmpiricalCDF([]CDFPoint{
	{Value: 6_000, P: 0},
	{Value: 6_000, P: 0.15},
	{Value: 13_000, P: 0.20},
	{Value: 19_000, P: 0.30},
	{Value: 33_000, P: 0.40},
	{Value: 53_000, P: 0.53},
	{Value: 133_000, P: 0.60},
	{Value: 667_000, P: 0.70},
	{Value: 1_333_000, P: 0.80},
	{Value: 3_333_000, P: 0.90},
	{Value: 6_667_000, P: 0.97},
	{Value: 20_000_000, P: 1.00},
})

// DataMining is the data-mining flow-size distribution (Greenberg et
// al., VL2), the other canonical datacenter workload: more extreme than
// web-search — ~80% of flows under 10 KB with a multi-MB elephant tail.
// Values are bytes.
var DataMining = MustEmpiricalCDF([]CDFPoint{
	{Value: 100, P: 0},
	{Value: 300, P: 0.3},
	{Value: 1_000, P: 0.5},
	{Value: 2_000, P: 0.6},
	{Value: 10_000, P: 0.8},
	{Value: 100_000, P: 0.9},
	{Value: 1_000_000, P: 0.95},
	{Value: 10_000_000, P: 0.98},
	{Value: 100_000_000, P: 1.00},
})
