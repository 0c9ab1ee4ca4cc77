// Package simclock provides the time abstraction used throughout the
// platform. Production code paths use the real wall clock; experiments use a
// deterministic discrete-event virtual clock so that cold-start latencies,
// billing windows and autoscaler dynamics are reproducible and run in
// microseconds of real time regardless of how many simulated hours they span.
//
// The rule the virtual clock rests on: a tracked goroutine may wait only
// through the clock; a wait on the outside world holds the clock unless a
// Join covers it. Goroutines taking part in simulated time are spawned
// through Clock.Go (or are the function passed to Virtual.Run). They wait for
// time with Clock.Sleep and for each other with Group, Event and Sem, whose
// releasing side marks the waiter runnable under the clock's lock before it
// carries on. A tracked goroutine that must wait on something the clock cannot
// see — an HTTP round trip — wraps it in Virtual.Outside and keeps counting
// as runnable; goroutines the clock does not track (net/http handlers) run
// clock-timed work through Clock.Join, and while a Join runs it stands in for
// one Outside waiter. So the clock always knows exactly how many goroutines
// can still act:
//
//	runnable = active − waiting − min(outside, joins)
//
// The goroutine whose Sleep, wait or return takes that count to zero jumps
// the clock to the earliest deadline and wakes the sleepers due at that
// instant. A Timer's deadline sits in the same heap: a timer is not a
// goroutine and never counts as runnable, and when it falls due its callback
// runs on a tracked goroutine of its own, before any sleeper due at that
// instant resumes. No goroutine drives the clock and nothing in it reads
// wall time.
package simclock

import (
	"runtime"
	"time"
)

// Clock is the time source shared by all platform components.
//
// Components must route all time-dependent behaviour through a Clock:
// reading time with Now, modelling latency with Sleep, spawning concurrent
// work with Go, and waiting for other goroutines with Group, Event or Sem.
// Code that follows this discipline runs identically under the real clock and
// the virtual clock. Real and Virtual are the only implementations: the
// interface is sealed by park and unpark, the primitive under those helpers.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time

	// Sleep blocks the calling goroutine for d of this clock's time.
	// Non-positive durations return immediately.
	Sleep(d time.Duration)

	// Go spawns fn as a goroutine tracked by this clock. All goroutines
	// that Sleep or wait on a virtual clock must be spawned via Go (or be
	// the function passed to Virtual.Run or Join).
	Go(fn func())

	// Join runs fn in this clock's time on behalf of a goroutine the clock
	// does not track (a net/http handler, say) and returns once fn has. Under
	// the virtual clock fn runs on a tracked worker, so its Sleeps advance
	// virtual time, while the caller waits where the clock cannot see it.
	// Under the real clock there is nothing to track: it simply calls fn.
	Join(fn func())

	// park blocks the calling goroutine until unpark(p), which may come
	// first. Under the virtual clock the caller stops counting as runnable
	// until then, so time can advance past it, and the unpark must come from
	// a tracked goroutine. Under the real clock the pair is a channel
	// receive and send.
	park(p *parker)
	unpark(p *parker)

	// arm schedules t to fire at at, moving it if it is pending.
	arm(t *Timer, at time.Time)
}

// Timer runs a callback when its clock reaches an instant; Reset re-arms it,
// and re-arming allocates nothing. Under the virtual clock the callback runs
// on a tracked goroutine before any goroutine sleeping until the same instant
// resumes, and timers due together run one after another in the order they
// were armed; a pending timer never moves a clock on which no tracked
// goroutine is alive. Under the real clock it is a time.AfterFunc.
//
// Callers serialize Reset. A callback must not wait on the clock (Sleep,
// Group, Event, Sem): it holds up the other timers due with it. A pending
// timer keeps its callback, and whatever the callback refers to, alive until
// it fires.
type Timer struct {
	c  Clock
	s  sleeper     // the callback; under the virtual clock, the heap entry
	rt *time.Timer // real: made by the first Reset
}

// NewTimer returns an unarmed timer that will run fn on clock c.
func NewTimer(c Clock, fn func()) *Timer {
	return &Timer{c: c, s: sleeper{idx: -1, fn: fn}}
}

// Reset arms t to fire at at, replacing any instant it was armed for. An
// instant already past fires as soon as the clock can.
func (t *Timer) Reset(at time.Time) { t.c.arm(t, at) }

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

// park receives p's release.
func (Real) park(p *parker) { <-p.ch }

// unpark sends p's release; the slot is buffered, so it never blocks.
func (Real) unpark(p *parker) { p.ch <- struct{}{} }

// Join simply runs fn, on the caller's goroutine.
func (Real) Join(fn func()) { fn() }

// arm starts t's time.AfterFunc on the first Reset and resets it after.
func (Real) arm(t *Timer, at time.Time) {
	if t.rt == nil {
		t.rt = time.AfterFunc(time.Until(at), t.s.fn)
		return
	}
	t.rt.Reset(time.Until(at))
}
