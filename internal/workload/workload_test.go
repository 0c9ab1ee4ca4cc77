package workload

import (
	"math"
	"sort"
	"testing"
	"time"
)

func TestConstant(t *testing.T) {
	rf := Constant(5)
	if rf(0) != 5 || rf(time.Hour) != 5 {
		t.Fatal("Constant not constant")
	}
}

func TestBurstyShape(t *testing.T) {
	rf := Bursty(0, 100, time.Minute, 10*time.Second)
	if rf(0) != 100 || rf(5*time.Second) != 100 {
		t.Fatal("no peak during burst")
	}
	if rf(30*time.Second) != 0 || rf(59*time.Second) != 0 {
		t.Fatal("base not honoured")
	}
	if rf(time.Minute) != 100 {
		t.Fatal("burst not periodic")
	}
}

func TestBurstyPeakToMean(t *testing.T) {
	// 10s of 100 rps per 60s, base 0 → mean ≈ 16.7, peak/mean ≈ 6.
	rf := Bursty(0, 100, time.Minute, 10*time.Second)
	ratio := peakToMean(rf, time.Hour)
	if ratio < 5.5 || ratio > 6.5 {
		t.Fatalf("peak/mean = %v, want ≈6", ratio)
	}
}

func TestSpike(t *testing.T) {
	rf := Spike(Constant(1), 500, time.Minute, 10*time.Second)
	if rf(0) != 1 || rf(65*time.Second) != 500 || rf(71*time.Second) != 1 {
		t.Fatal("spike misplaced")
	}
}

func TestShift(t *testing.T) {
	sh := Shift(Constant(5), time.Minute)
	if sh(30*time.Second) != 0 || sh(2*time.Minute) != 5 {
		t.Fatal("Shift wrong")
	}
}

func TestArrivalsDeterministicAndSorted(t *testing.T) {
	rf := Constant(10)
	a := Arrivals(rf, time.Minute, 7)
	b := Arrivals(rf, time.Minute, 7)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic arrivals")
		}
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatal("arrivals not sorted")
	}
}

func TestArrivalsRateMatches(t *testing.T) {
	// 10 rps over 10 minutes ⇒ ~6000 arrivals; Poisson σ≈77, allow ±5σ.
	got := len(Arrivals(Constant(10), 10*time.Minute, 1))
	if got < 5600 || got > 6400 {
		t.Fatalf("arrivals = %d, want ≈6000", got)
	}
}

func TestArrivalsRespectBursts(t *testing.T) {
	rf := Bursty(0, 100, time.Minute, 10*time.Second)
	arr := Arrivals(rf, 10*time.Minute, 42)
	inBurst := 0
	for _, a := range arr {
		if a%time.Minute < 10*time.Second {
			inBurst++
		}
	}
	if frac := float64(inBurst) / float64(len(arr)); frac < 0.98 {
		t.Fatalf("only %.2f of arrivals in burst windows, want ~1.0", frac)
	}
}

func TestArrivalsZeroRate(t *testing.T) {
	if got := Arrivals(Constant(0), time.Minute, 1); len(got) != 0 {
		t.Fatalf("zero-rate produced %d arrivals", len(got))
	}
}

func TestUniformArrivals(t *testing.T) {
	arr := UniformArrivals(Constant(3), 2*time.Second)
	if len(arr) != 6 {
		t.Fatalf("arrivals = %d, want 6", len(arr))
	}
	if !sort.SliceIsSorted(arr, func(i, j int) bool { return arr[i] < arr[j] }) {
		t.Fatal("not sorted")
	}
}

func TestPeakAndMeanRate(t *testing.T) {
	rf := Bursty(2, 10, time.Minute, 30*time.Second)
	if p := PeakRate(rf, time.Hour); p != 10 {
		t.Fatalf("peak = %v", p)
	}
	if ptm := peakToMean(rf, time.Hour); math.Abs(ptm-10.0/6) > 0.06 {
		t.Fatalf("peak/mean = %v, want ≈10/6", ptm)
	}
}

// peakToMean is PeakRate over rf's time-average on [0, window), sampled
// each second.
func peakToMean(rf RateFunc, window time.Duration) float64 {
	var sum float64
	var n int
	for t := time.Duration(0); t < window; t += time.Second {
		sum += rf(t)
		n++
	}
	return PeakRate(rf, window) / (sum / float64(n))
}

func TestZipfKeysSkewed(t *testing.T) {
	keys := ZipfKeys(1000, 1.5, 20000, 3)
	counts := map[string]int{}
	for _, k := range keys {
		counts[k]++
	}
	if counts["key-0"] < len(keys)/10 {
		t.Fatalf("hottest key only %d/%d — not skewed", counts["key-0"], len(keys))
	}
	// Determinism.
	keys2 := ZipfKeys(1000, 1.5, 20000, 3)
	for i := range keys {
		if keys[i] != keys2[i] {
			t.Fatal("ZipfKeys nondeterministic")
		}
	}
}

func TestPayloadDeterministic(t *testing.T) {
	a, b := Payload(64, 9), Payload(64, 9)
	if string(a) != string(b) {
		t.Fatal("payload nondeterministic")
	}
	if string(a) == string(Payload(64, 10)) {
		t.Fatal("different seeds gave identical payloads")
	}
}
