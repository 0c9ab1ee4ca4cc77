// Package simclock provides the time abstraction used throughout the
// platform. Production code paths use the real wall clock; experiments use a
// deterministic discrete-event virtual clock so that cold-start latencies,
// billing windows and autoscaler dynamics are reproducible and run in
// microseconds of real time regardless of how many simulated hours they span.
//
// The virtual clock follows a quiescence-advance design: goroutines
// participating in simulated time are spawned through Clock.Go, and block
// through Clock.Sleep or Clock.BlockOn; goroutines the clock does not track
// (net/http handlers) enter through Clock.Join. When every tracked goroutine
// is blocked and at least one is sleeping on a deadline, the clock jumps to
// the earliest deadline and wakes the sleepers due at that instant.
package simclock

import (
	"runtime"
	"time"
)

// Clock is the time source shared by all platform components.
//
// Components must route all time-dependent behaviour through a Clock:
// reading time with Now, modelling latency with Sleep, spawning concurrent
// work with Go, and waiting on non-time events (channels, wait groups) with
// BlockOn. Code that follows this discipline runs identically under the real
// clock and the virtual clock.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time

	// Sleep blocks the calling goroutine for d of this clock's time.
	// Non-positive durations return immediately.
	Sleep(d time.Duration)

	// Go spawns fn as a goroutine tracked by this clock. All goroutines
	// that Sleep or BlockOn on a virtual clock must be spawned via Go (or
	// be the function passed to Virtual.Run).
	Go(fn func())

	// BlockOn runs fn, which is expected to block on a non-time event
	// (channel receive, WaitGroup, mutex) that some other tracked
	// goroutine will resolve. Under the virtual clock this marks the
	// goroutine as blocked so time can advance past it; under the real
	// clock it simply calls fn.
	BlockOn(fn func())

	// Join runs fn in this clock's time on behalf of a goroutine the clock
	// does not track (a net/http handler, say) and returns once fn has. Under
	// the virtual clock fn runs on a tracked goroutine, so its Sleeps advance
	// virtual time, while the caller waits where the clock cannot see it —
	// an untracked goroutine must stay invisible to quiescence detection.
	// Under the real clock there is nothing to track: it simply calls fn.
	Join(fn func())
}

// Real is the wall Clock. The zero value is ready to use.
type Real struct{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// spinSleepMax bounds the sleeps Real.Sleep serves by yielding-and-polling
// instead of the runtime timer. Modelled latencies of a few nanoseconds —
// the warm-start and append latencies micro-benchmarks configure — cost
// microseconds through time.Sleep's timer machinery, dwarfing the thing
// being measured; a Gosched loop keeps them honest while still yielding the
// processor, so single-CPU runs cannot livelock.
const spinSleepMax = 10 * time.Microsecond

// Sleep blocks for d: short sleeps yield-and-poll (see spinSleepMax), longer
// ones call time.Sleep.
func (Real) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if d > spinSleepMax {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for {
		runtime.Gosched()
		if !time.Now().Before(deadline) {
			return
		}
	}
}

// Go spawns fn with the go statement.
func (Real) Go(fn func()) { go fn() }

// BlockOn simply runs fn.
func (Real) BlockOn(fn func()) { fn() }

// Join simply runs fn, on the caller's goroutine.
func (Real) Join(fn func()) { fn() }
