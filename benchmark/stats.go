package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail read off fewer is one or two outliers, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank pct-th percentile (0 < pct <= 100) of
// sorted, which must be ascending. ok is false — and the value must not be
// reported as that percentile — when fewer than minBeyond samples lie beyond
// it; the value returned is still the nearest-rank element, so a smoke run
// has something to print.
func percentile(sorted []float64, pct float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(pct * float64(n) / 100)) // multiply first: 99*1000/100 is exact, 0.99*1000 is not
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// highestPercentile returns the highest of the usual tail percentiles that
// n samples support with minBeyond samples beyond it, and 50 if none does.
func highestPercentile(n int) float64 {
	for _, pct := range []float64{99, 95, 90, 80, 75} {
		if n-int(math.Ceil(pct*float64(n)/100)) >= minBeyond {
			return pct
		}
	}
	return 50
}

// median returns the middle value of vs (the mean of the middle two when
// len(vs) is even), 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(vs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vs exactly as Python's
// statistics.quantiles(vs, n=4) does (the "exclusive" method), so the spread
// -compare prints is the spread the acceptance driver computes. Fewer than
// two values have no spread: both quartiles are the single value.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vs[0], vs[0]
	}
	s := sortedCopy(vs)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		// Taken after the clamp, as Python does: at the ends of a short
		// list delta leaves [0,4] and the quartile is extrapolated.
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile range of vs as a share of its median, the
// figure every bound in BENCHMARK.json is compared against.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// worseBy returns how much worse cand is than base as a share of base:
// positive is a regression, negative an improvement, whichever direction the
// metric counts as better.
func worseBy(base, cand float64, higherIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	d := (cand - base) / math.Abs(base)
	if higherIsBetter {
		return -d
	}
	return d
}

// Verdicts of the per-metric bound check.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge is the per-metric bound check: given the two medians and the two
// round-to-round spreads it says whether cand is the same as base within
// bound, better or worse by more than bound, or unresolved because either
// side's own spread is wider than the bound being tested.
func judge(base, cand, baseSpread, candSpread float64, higherIsBetter bool, bound float64) string {
	if baseSpread > bound || candSpread > bound {
		return verdictUnresolved
	}
	switch w := worseBy(base, cand, higherIsBetter); {
	case w > bound:
		return verdictWorse
	case w < -bound:
		return verdictBetter
	}
	return verdictSame
}
