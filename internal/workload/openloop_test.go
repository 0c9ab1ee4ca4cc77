package workload

import (
	"testing"
	"time"
)

func TestBurstShape(t *testing.T) {
	rf := Burst(2, 10, 30*time.Second, 10*time.Second)
	if got := rf(0); got != 2 {
		t.Fatalf("pre-burst = %v, want 2", got)
	}
	if got := rf(35 * time.Second); got != 20 {
		t.Fatalf("mid-burst = %v, want 20", got)
	}
	if got := rf(45 * time.Second); got != 2 {
		t.Fatalf("post-burst = %v, want 2", got)
	}
	// §3.2's signature: peak is several times the mean.
	if ptm := peakToMean(rf, time.Minute); ptm < 3 {
		t.Fatalf("peak-to-mean = %v, want ≥ 3", ptm)
	}
}

func TestOffsetArrivals(t *testing.T) {
	in := []time.Duration{0, time.Second, 2 * time.Second}
	out := OffsetArrivals(in, 500*time.Microsecond)
	if len(out) != 3 || out[0] != 500*time.Microsecond || out[2] != 2*time.Second+500*time.Microsecond {
		t.Fatalf("out = %v", out)
	}
	if got := OffsetArrivals(in, -2*time.Second); len(got) != 1 {
		t.Fatalf("negative offset kept %v", got)
	}
}

func TestConvergenceTime(t *testing.T) {
	steady := 10 * time.Millisecond
	series := []time.Duration{
		10 * time.Millisecond, // 0s: steady
		80 * time.Millisecond, // 1s: burst
		60 * time.Millisecond, // 2s
		25 * time.Millisecond, // 3s: still >2×
		15 * time.Millisecond, // 4s: converged
		11 * time.Millisecond, // 5s
	}
	if got := ConvergenceTime(series, steady, 2, time.Second); got != 3*time.Second {
		t.Fatalf("convergence = %v, want 3s", got)
	}
	// Never converges.
	if got := ConvergenceTime([]time.Duration{time.Second, time.Second}, steady, 2, 0); got != -1 {
		t.Fatalf("non-convergent = %v, want -1", got)
	}
	// Already converged at burst end.
	if got := ConvergenceTime(series, steady, 10, time.Second); got != 0 {
		t.Fatalf("instant convergence = %v, want 0", got)
	}
}
