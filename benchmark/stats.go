package main

import (
	"math"
	"sort"
)

// stat summarises the samples of one metric. Every number the
// benchmark prints is one of these, so a reader always sees the unit,
// the spread and how many samples stand behind a median.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize reduces samples to a stat. The quartiles follow the
// exclusive method of Python's statistics.quantiles(values, n=4), the
// rule the acceptance driver applies, so a spread computed here is the
// spread the driver sees. With one sample every field is that sample.
func summarize(unit string, vals []float64) stat {
	if len(vals) == 0 {
		return stat{Unit: unit}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return stat{
		Unit:   unit,
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		Min:    s[0],
		Max:    s[len(s)-1],
		N:      len(s),
	}
}

// one is the stat of a single measured or exactly counted value.
func one(unit string, v float64) stat { return summarize(unit, []float64{v}) }

// quantile interpolates the p-quantile of sorted at position p*(n+1),
// clamped to the sample range.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := math.Floor(pos)
	frac := pos - lo
	return sorted[int(lo)] + frac*(sorted[int(lo)+1]-sorted[int(lo)])
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure a bound is compared against.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func median(vals []float64) float64 { return summarize("", vals).Median }
