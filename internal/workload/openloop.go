package workload

import "time"

// This file holds the open-loop shapes the elasticity experiments drive the
// autoscaler with (§3.2: "peak several times the mean"): multiplicative
// bursts. Open-loop means arrivals are scheduled by the shape alone — a slow
// platform does not slow the offered load, it builds queues — which is what
// makes burst→cold-start→converge curves honest.

// Burst is the burst-convergence shape: steady baseRPS, a multiple× surge
// starting at 'at' for 'width', then steady baseRPS again. Burst(2, 10, …)
// offers 2 rps normally and 20 rps during the surge — the open-loop input
// of the burst→cold-start→converge experiment (E27).
func Burst(baseRPS, multiple float64, at, width time.Duration) RateFunc {
	return Spike(Constant(baseRPS), baseRPS*multiple, at, width)
}

// OffsetArrivals shifts every arrival by delta — used to keep open-loop
// arrivals off the autoscaler's tick grid (off-grid arrivals cannot race a
// same-instant control-loop evaluation, which keeps virtual-clock runs
// deterministic).
func OffsetArrivals(arrivals []time.Duration, delta time.Duration) []time.Duration {
	out := make([]time.Duration, 0, len(arrivals))
	for _, a := range arrivals {
		if v := a + delta; v >= 0 {
			out = append(out, v)
		}
	}
	return out
}

// ConvergenceTime scans per-second p99 samples after a burst ends and
// returns how long the metric stayed above tolerance × steady, i.e. the
// recovery time the burst experiment reports. Samples before 'from' are
// ignored; returns -1 if the series never re-converges.
func ConvergenceTime(perSecondP99 []time.Duration, steady time.Duration, tolerance float64, from time.Duration) time.Duration {
	limit := time.Duration(float64(steady) * tolerance)
	start := int(from / time.Second)
	if start < 0 {
		start = 0
	}
	last := -1
	for i := start; i < len(perSecondP99); i++ {
		if perSecondP99[i] > limit {
			last = i
		}
	}
	if last < 0 {
		return 0
	}
	if last == len(perSecondP99)-1 {
		return -1 // still above tolerance at the end of the window
	}
	conv := time.Duration(last+1) * time.Second
	if conv < from {
		return 0
	}
	return conv - from
}
