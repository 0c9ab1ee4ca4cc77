// Package workload generates the load shapes that §3.2 of the paper says
// characterize serverless applications: highly variable load over time, with
// peak several times the mean and the minimum often zero. Generators are
// deterministic given a seed so experiments are reproducible.
package workload

import (
	"math"
	"math/rand"
	"time"
)

// RateFunc gives the offered load, in requests per second, at offset t from
// the start of the workload window.
type RateFunc func(t time.Duration) float64

// Constant returns a flat rate.
func Constant(rps float64) RateFunc {
	return func(time.Duration) float64 { return rps }
}

// Bursty returns a square wave: baseRPS normally, peakRPS during the first
// burstLen of every period. With baseRPS = 0 this reproduces the paper's
// "minimum often being zero" shape.
func Bursty(baseRPS, peakRPS float64, period, burstLen time.Duration) RateFunc {
	return func(t time.Duration) float64 {
		if period <= 0 {
			return baseRPS
		}
		if t%period < burstLen {
			return peakRPS
		}
		return baseRPS
	}
}

// Spike overlays a single rectangular spike of peakRPS on top of base,
// starting at 'at' and lasting 'width'.
func Spike(base RateFunc, peakRPS float64, at, width time.Duration) RateFunc {
	return func(t time.Duration) float64 {
		if t >= at && t < at+width {
			return peakRPS
		}
		return base(t)
	}
}

// Shift delays a rate function by d (load before the shifted start is zero).
func Shift(rf RateFunc, d time.Duration) RateFunc {
	return func(t time.Duration) float64 {
		if t < d {
			return 0
		}
		return rf(t - d)
	}
}

// Arrivals samples a non-homogeneous Poisson process with intensity rf over
// [0, window) using Lewis-Shedler thinning, seeded for determinism. The
// returned offsets are strictly increasing.
func Arrivals(rf RateFunc, window time.Duration, seed int64) []time.Duration {
	lambdaMax := PeakRate(rf, window)
	if lambdaMax <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	wsec := window.Seconds()
	for {
		t += rng.ExpFloat64() / lambdaMax
		if t >= wsec {
			return out
		}
		at := time.Duration(t * float64(time.Second))
		if rng.Float64()*lambdaMax <= rf(at) {
			out = append(out, at)
		}
	}
}

// UniformArrivals produces evenly spaced arrivals tracking rf: within each
// one-second bucket, round(rate) arrivals spread uniformly. Deterministic
// without randomness; useful for exact-shape tests.
func UniformArrivals(rf RateFunc, window time.Duration) []time.Duration {
	var out []time.Duration
	for s := time.Duration(0); s < window; s += time.Second {
		n := int(math.Round(rf(s)))
		for i := 0; i < n; i++ {
			out = append(out, s+time.Duration(i)*(time.Second/time.Duration(n+1)))
		}
	}
	return out
}

// sampleEvery is the sampling step PeakRate uses.
const sampleEvery = time.Second

// PeakRate returns the maximum of rf over [0, window], sampled each second.
func PeakRate(rf RateFunc, window time.Duration) float64 {
	peak := 0.0
	for t := time.Duration(0); t <= window; t += sampleEvery {
		if r := rf(t); r > peak {
			peak = r
		}
	}
	return peak
}
