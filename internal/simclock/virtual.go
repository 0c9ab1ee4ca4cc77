package simclock

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Virtual is a deterministic discrete-event Clock. Time only moves when every
// tracked goroutine is blocked; it then jumps directly to the earliest
// pending deadline. A simulation spanning days completes in real
// milliseconds, and two runs with the same inputs observe identical
// timestamps.
//
// Use NewVirtual to create one and Run to execute the simulation's root
// function.
type Virtual struct {
	mu      sync.Mutex
	cond    *sync.Cond // signalled on every state mutation; the driver waits on it
	now     time.Time
	active  int   // tracked goroutines currently alive
	blocked int   // of those, blocked in Sleep or BlockOn
	gen     int64 // bumped on every state mutation; lets the driver detect churn
	seq     int64
	sleep   sleepHeap
	closed  bool
}

type sleeper struct {
	deadline time.Time
	seq      int64 // FIFO tiebreak for equal deadlines: determinism
	wake     chan struct{}
}

type sleepHeap []*sleeper

func (h sleepHeap) Len() int { return len(h) }
func (h sleepHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h sleepHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *sleepHeap) Push(x any)   { *h = append(*h, x.(*sleeper)) }
func (h *sleepHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	*h = old[:n-1]
	return s
}
func (h sleepHeap) peek() *sleeper { return h[0] }

// Epoch is the instant at which virtual clocks created by NewVirtual start.
var Epoch = time.Date(2020, 6, 14, 0, 0, 0, 0, time.UTC) // SIGMOD'20, day one

// settle is how long the driver waits, in real time, to confirm the
// simulation is quiescent before advancing virtual time. It gives goroutines
// that were just woken (and are briefly still counted as blocked) a chance to
// resume and register as runnable. The generation check re-verifies state
// after the window, so settle trades a little safety margin for simulation
// throughput (it is paid once per virtual-time advance).
const settle = 75 * time.Microsecond

// deadlockConfirm is how long quiescence-with-no-timers must persist, with
// no state change, before the clock declares the simulation deadlocked.
// Transients — a goroutine descheduled inside a momentary BlockOn — can look
// deadlocked for a scheduling quantum; a real deadlock persists forever, so
// a generous window costs nothing.
const deadlockConfirm = 250 * time.Millisecond

// NewVirtual returns a Virtual clock positioned at Epoch with its advance
// driver running. Call Close when the clock is no longer needed.
func NewVirtual() *Virtual {
	v := &Virtual{now: Epoch}
	v.cond = sync.NewCond(&v.mu)
	go v.drive()
	return v
}

// Close stops the clock's internal driver goroutine. Using the clock after
// Close may hang tracked goroutines; only call it once the simulation is done.
func (v *Virtual) Close() {
	v.mu.Lock()
	v.closed = true
	v.mu.Unlock()
	v.cond.Broadcast()
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep blocks the calling tracked goroutine for d of virtual time.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	s := &sleeper{deadline: v.now.Add(d), seq: v.seq, wake: make(chan struct{})}
	v.seq++
	heap.Push(&v.sleep, s)
	v.blocked++
	v.gen++
	v.mu.Unlock()
	v.cond.Broadcast()

	<-s.wake // the driver decremented blocked when it woke us
}

// Go spawns fn as a tracked goroutine.
func (v *Virtual) Go(fn func()) {
	v.mu.Lock()
	v.active++
	v.gen++
	v.mu.Unlock()
	v.cond.Broadcast()
	go func() {
		defer func() {
			v.mu.Lock()
			v.active--
			v.gen++
			v.mu.Unlock()
			v.cond.Broadcast()
		}()
		fn()
	}()
}

// BlockOn marks the calling tracked goroutine as blocked while fn runs.
// fn must block only on events resolved by other tracked goroutines.
//
// Caveat: the caller may observe a LATER Now() than the instant its event
// was resolved. Resolution is a plain memory operation the clock cannot
// see, so if the resumed caller stays descheduled past the driver's settle
// window (e.g. under GC assist pressure) the driver can advance to the
// next deadline first. When an exact timestamp matters — wall-time
// measurements especially — capture Now() in the resolving tracked
// goroutine, not after BlockOn returns.
func (v *Virtual) BlockOn(fn func()) {
	v.mu.Lock()
	v.blocked++
	v.gen++
	v.mu.Unlock()
	v.cond.Broadcast()

	fn()

	v.mu.Lock()
	v.blocked--
	v.gen++
	v.mu.Unlock()
	v.cond.Broadcast()
}

// Join runs fn on a tracked goroutine and waits for it on a plain channel:
// the caller is untracked, and a wait the clock could see would count a
// goroutine it never started.
func (v *Virtual) Join(fn func()) {
	done := make(chan struct{})
	v.Go(func() {
		fn()
		close(done)
	})
	<-done
}

// Run executes fn as the root tracked goroutine and blocks the caller (which
// is outside the simulation) until fn and every goroutine it spawned via Go
// have finished. It returns the final virtual time.
func (v *Virtual) Run(fn func()) time.Time {
	finished := make(chan struct{})
	v.Go(func() {
		defer close(finished)
		fn()
	})
	<-finished
	// Wait for stragglers spawned by fn that are still alive.
	v.mu.Lock()
	for v.active > 0 {
		v.mu.Unlock()
		time.Sleep(settle)
		v.mu.Lock()
	}
	t := v.now
	v.mu.Unlock()
	return t
}

// Elapsed returns the virtual time elapsed since Epoch.
func (v *Virtual) Elapsed() time.Duration {
	return v.Now().Sub(Epoch)
}

// drive is the clock's advance loop. It waits until the simulation is
// quiescent (every tracked goroutine blocked), confirms quiescence held for a
// settle window, then jumps time to the earliest deadline and wakes the
// sleepers due there.
func (v *Virtual) drive() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for {
		for !v.closed && !v.quiescentLocked() {
			v.cond.Wait()
		}
		if v.closed {
			return
		}
		// Confirm nothing changed across a settle window: a goroutine
		// woken a moment ago may still be counted as blocked.
		g := v.gen
		v.mu.Unlock()
		time.Sleep(settle)
		v.mu.Lock()
		if v.closed {
			return
		}
		if v.gen != g || !v.quiescentLocked() {
			continue
		}
		if v.sleep.Len() == 0 {
			// Every goroutine appears to wait on a non-time event. Confirm
			// the state holds over a long window before declaring a
			// genuine deadlock in the simulated program.
			confirmed := true
			deadline := time.Now().Add(deadlockConfirm)
			for time.Now().Before(deadline) {
				g2 := v.gen
				v.mu.Unlock()
				time.Sleep(settle)
				v.mu.Lock()
				if v.closed {
					return
				}
				if v.gen != g2 || !v.quiescentLocked() || v.sleep.Len() > 0 {
					confirmed = false
					break
				}
			}
			if !confirmed {
				continue
			}
			panic(fmt.Sprintf("simclock: deadlock at %s: %d goroutines blocked with no pending timers",
				v.now.Format(time.RFC3339Nano), v.blocked))
		}
		next := v.sleep.peek().deadline
		if next.After(v.now) {
			v.now = next
		}
		for v.sleep.Len() > 0 && !v.sleep.peek().deadline.After(v.now) {
			s := heap.Pop(&v.sleep).(*sleeper)
			v.blocked-- // the woken goroutine is runnable again
			close(s.wake)
		}
		v.gen++
	}
}

// quiescentLocked reports whether every tracked goroutine is blocked.
func (v *Virtual) quiescentLocked() bool {
	return v.active > 0 && v.blocked >= v.active
}
