package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		pct  float64
		want float64
		ok   bool
	}{
		{2000, 99, 1980, true}, // 20 beyond
		{1000, 99, 990, true},  // exactly 10 beyond
		{999, 99, 990, false},  // rank ceil(989.01)=990, 9 beyond
		{100, 99, 99, false},   // 1 beyond
		{112, 90, 101, true},   // 11 beyond
		{98, 90, 89, false},    // 9 beyond
		{42, 75, 32, true},     // 10 beyond: the sim-sebs tail
		{7, 50, 4, false},      // a median of rounds is not a percentile of samples
		{5, 100, 5, false},     // the maximum has nothing beyond it
		{3, 0.0001, 1, false},  // rank clamps to 1
	} {
		got, ok := percentile(seq(c.n), c.pct)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.pct, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples must be refused")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9, 1, 1, 1, 9, 9, 5}, 5}, // 7 rounds, three of them slow
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median sorted its argument in place")
	}
}

// The expected values are statistics.quantiles(vs, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(7), 2, 6},
		{[]float64{10, 20}, 7.5, 22.5}, // extrapolated, as Python does
		{[]float64{5}, 5, 5},
		{[]float64{40, 10, 30, 20}, 12.5, 37.5},
	} {
		q1, q3 := quartiles(c.in)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread(seq(10)); got != 1 { // (8.25-2.75)/5.5
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %g, want 0", got)
	}
}

func TestWorseByAndJudge(t *testing.T) {
	if got := worseBy(100, 109, false); math.Abs(got-0.09) > 1e-12 {
		t.Errorf("lower-is-better 100→109: worse by %g, want 0.09", got)
	}
	if got := worseBy(100, 91, true); math.Abs(got-0.09) > 1e-12 {
		t.Errorf("higher-is-better 100→91: worse by %g, want 0.09", got)
	}
	for _, c := range []struct {
		base, cand, bs, cs float64
		higher             bool
		bound              float64
		want               string
	}{
		{100, 107, 0.01, 0.01, false, 0.08, verdictSame},
		{100, 109, 0.01, 0.01, false, 0.08, verdictWorse},
		{100, 90, 0.01, 0.01, false, 0.08, verdictBetter},
		{100, 91, 0.01, 0.01, true, 0.08, verdictWorse},
		{100, 110, 0.01, 0.01, true, 0.08, verdictBetter},
		{100, 150, 0.10, 0.01, false, 0.08, verdictUnresolved}, // base's own rounds disagree by more than the bound
		{100, 100, 0.01, 0.09, false, 0.08, verdictUnresolved},
		{1, 0.9995, 0, 0, true, 0.001, verdictSame}, // ok_ratio within its bound
		{1, 0.998, 0, 0, true, 0.001, verdictWorse},
	} {
		if got := judge(c.base, c.cand, c.bs, c.cs, c.higher, c.bound); got != c.want {
			t.Errorf("judge(%g→%g, spreads %g/%g, higher=%v, bound %g) = %s, want %s",
				c.base, c.cand, c.bs, c.cs, c.higher, c.bound, got, c.want)
		}
	}
}
