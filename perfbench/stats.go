package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample such that at least p% of the samples are <=
// it. Every percentile this benchmark reports comes from here, over the
// raw per-operation samples it kept; it never reads a bucketed
// histogram. An empty input yields NaN, which printReport refuses.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// pctMetric reduces samples to their nearest-rank p-th percentile.
func pctMetric(name string, xs []float64, p float64, unit string) metric {
	return metric{name: name, value: percentile(xs, p), unit: unit, samples: len(xs)}
}
