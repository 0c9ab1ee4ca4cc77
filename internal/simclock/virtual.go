package simclock

import (
	"container/heap"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Virtual is a deterministic discrete-event Clock. Time only moves when no
// tracked goroutine can run; it then jumps directly to the earliest pending
// deadline. A simulation spanning days completes in real milliseconds, and
// two runs with the same inputs observe identical timestamps.
//
// The clock has no goroutine of its own and never consults the wall clock.
// It keeps one invariant under mu,
//
//	runnable = active − waiting − min(outside, joins)
//
// and every method that can lower runnable (Sleep, a Group, Event or Sem
// wait, a tracked goroutine returning, Outside, the end of a Join) checks it before releasing mu: the
// goroutine that takes it to zero advances time itself, to the earliest
// deadline, and wakes the sleepers due there — or, with no deadline pending
// and goroutines parked, reports the deadlock on the spot.
//
// Use NewVirtual to create one and Run to execute the simulation's root
// function.
type Virtual struct {
	mu      sync.Mutex
	idle    *sync.Cond // signalled when active reaches zero; Run waits on it
	now     time.Time
	active  int // tracked goroutines alive, Join workers included
	waiting int // of those, asleep on a deadline or parked
	outside int // of those, inside Outside: waiting on the world beyond the clock
	joins   int // Join workers alive; each accounts for one Outside waiter
	seq     int64
	sleep   sleepHeap
	parked  []*parker // who is parked, for the deadlock report
}

// sleeper is one entry in the deadline heap: a goroutine in Sleep, or a
// Timer (fn set), which is not a goroutine and runs fn when it falls due.
type sleeper struct {
	deadline time.Time
	seq      int64 // FIFO tiebreak for equal deadlines: determinism
	idx      int   // position in the heap, -1 when not in it
	fn       func()
	woken    bool
	wake     chan struct{} // nil while the sleeper has not had to block
}

// sleepHeap orders by deadline, then timers before sleepers, then seq.
type sleepHeap []*sleeper

func (h sleepHeap) Len() int { return len(h) }
func (h sleepHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if !a.deadline.Equal(b.deadline) {
		return a.deadline.Before(b.deadline)
	}
	if (a.fn != nil) != (b.fn != nil) {
		return a.fn != nil
	}
	return a.seq < b.seq
}
func (h sleepHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *sleepHeap) Push(x any) {
	s := x.(*sleeper)
	s.idx = len(*h)
	*h = append(*h, s)
}
func (h *sleepHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	s.idx = -1
	*h = old[:n-1]
	return s
}
func (h sleepHeap) peek() *sleeper { return h[0] }

// Epoch is the instant at which virtual clocks created by NewVirtual start.
var Epoch = time.Date(2020, 6, 14, 0, 0, 0, 0, time.UTC) // SIGMOD'20, day one

// NewVirtual returns a Virtual clock positioned at Epoch.
func NewVirtual() *Virtual {
	v := &Virtual{now: Epoch}
	v.idle = sync.NewCond(&v.mu)
	return v
}

// Close does nothing: the clock owns no goroutine and no resource. It stays
// because callers defer it, and may be called any number of times.
func (v *Virtual) Close() {}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Elapsed returns the virtual time elapsed since Epoch.
func (v *Virtual) Elapsed() time.Duration {
	return v.Now().Sub(Epoch)
}

// advance runs, with mu held, after a transition that may have lowered the
// runnable count. At zero it advances time to the earliest deadline. When
// timers are due there it starts one tracked goroutine to run them (runTimers)
// and wakes nobody yet; otherwise it wakes every sleeper due at that instant.
// Timers alone never move a clock on which no tracked goroutine is alive. It
// returns a non-empty report when the simulation cannot continue — nothing
// runnable, nothing to advance to, and goroutines parked — for the caller to
// panic with once it has unlocked.
func (v *Virtual) advance() (fatal string) {
	covered := v.outside
	if v.joins < covered {
		covered = v.joins
	}
	switch runnable := v.active - v.waiting - covered; {
	case runnable > 0:
	case runnable < 0:
		return "simclock: a goroutine the clock does not track slept, waited or called Outside; spawn it with Go, or enter through Run or Join"
	case v.sleep.Len() > 0 && v.active > 0:
		next := v.sleep.peek()
		if next.deadline.After(v.now) {
			v.now = next.deadline
		}
		if next.fn != nil {
			v.active++
			go v.runTimers()
			return ""
		}
		for v.sleep.Len() > 0 && !v.sleep.peek().deadline.After(v.now) {
			s := heap.Pop(&v.sleep).(*sleeper)
			v.waiting--
			s.woken = true
			if s.wake != nil {
				close(s.wake)
			}
		}
	case len(v.parked) > 0:
		return v.deadlockReport()
	}
	return ""
}

// runTimers is the tracked goroutine advance starts when timers fall due: it
// runs every timer due now, one after another in arming order (a timer one
// of them arms for now included), then exits like any tracked goroutine —
// and that exit is what lets the sleepers due at the same instant wake.
func (v *Virtual) runTimers() {
	v.mu.Lock()
	for v.sleep.Len() > 0 {
		t := v.sleep.peek()
		if t.fn == nil || t.deadline.After(v.now) {
			break
		}
		heap.Pop(&v.sleep)
		v.mu.Unlock()
		t.fn()
		v.mu.Lock()
	}
	v.exitLocked()
}

// arm schedules t's callback at at, or moves it there if it is pending: a
// re-arm is a heap.Fix and allocates nothing. It takes the next seq, so
// timers due at one instant run in the order they were last armed.
func (v *Virtual) arm(t *Timer, at time.Time) {
	v.mu.Lock()
	s := &t.s
	s.deadline, s.seq = at, v.seq
	v.seq++
	if s.idx >= 0 {
		heap.Fix(&v.sleep, s.idx)
	} else {
		heap.Push(&v.sleep, s)
	}
	v.mu.Unlock()
}

// unlockAdvance is advance, then Unlock, then the panic if advance asked for one.
func (v *Virtual) unlockAdvance() {
	fatal := v.advance()
	v.mu.Unlock()
	if fatal != "" {
		panic(fatal)
	}
}

// deadlockReport describes a simulation in which nothing can run and no
// timer is pending: the instant, the census, and where each parked goroutine
// parked (the first frame outside this package's helpers).
func (v *Virtual) deadlockReport() string {
	sites := map[string]int{}
	for _, p := range v.parked {
		sites[p.site()]++
	}
	lines := make([]string, 0, len(sites))
	for site, n := range sites {
		lines = append(lines, fmt.Sprintf("\n\t%s (%d)", site, n))
	}
	sort.Strings(lines)
	return fmt.Sprintf("simclock: deadlock at %s (+%v): %d goroutines parked, %d sleeping, %d tracked, none runnable; parked at:%s",
		v.now.Format(time.RFC3339Nano), v.now.Sub(Epoch), len(v.parked), v.sleep.Len(), v.active, strings.Join(lines, ""))
}

// Sleep blocks the calling tracked goroutine for d of virtual time.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	s := &sleeper{deadline: v.now.Add(d), seq: v.seq}
	v.seq++
	heap.Push(&v.sleep, s)
	v.waiting++
	// When the caller was the last runnable goroutine and its own deadline is
	// the earliest, advance has already woken it: no channel, no blocking.
	fatal := v.advance()
	if !s.woken {
		s.wake = make(chan struct{})
	}
	wake := s.wake
	v.mu.Unlock()
	if fatal != "" {
		panic(fatal)
	}
	if wake != nil {
		<-wake
	}
}

// Go spawns fn as a tracked goroutine.
func (v *Virtual) Go(fn func()) {
	v.enter()
	go func() {
		defer v.exit()
		fn()
	}()
}

func (v *Virtual) enter() {
	v.mu.Lock()
	v.active++
	v.mu.Unlock()
}

func (v *Virtual) exit() {
	v.mu.Lock()
	v.exitLocked()
}

func (v *Virtual) exitLocked() {
	v.active--
	if v.active == 0 {
		v.idle.Broadcast()
	}
	v.unlockAdvance()
}

// parker is a parking spot: one goroutine parks on it and one unpark
// releases it, in either order. It is the primitive under Group, Event and
// Sem, and waitq.park reuses it once both have happened.
type parker struct {
	ch chan struct{} // buffered, one slot: the release

	// Guarded by Virtual.mu; unused on the real clock.
	parked   bool
	released bool
	idx      int        // position in Virtual.parked while parked
	pcs      [6]uintptr // call stack of park, for the deadlock report
	npc      int
}

// newParker returns a parker ready for one park and one unpark.
func newParker() *parker { return &parker{ch: make(chan struct{}, 1)} }

// site names where p parked: the innermost frame outside this package's own
// wait helpers.
func (p *parker) site() string {
	frames := runtime.CallersFrames(p.pcs[:p.npc])
	for {
		f, more := frames.Next()
		helper := strings.HasPrefix(f.Function, "repro/internal/simclock.") && !strings.HasSuffix(f.File, "_test.go")
		if !helper || !more {
			return fmt.Sprintf("%s:%d", f.File, f.Line)
		}
	}
}

// park blocks the calling tracked goroutine until unpark(p). The goroutine
// counts as waiting from here until the unpark, which must come from a
// goroutine the clock tracks.
func (v *Virtual) park(p *parker) {
	v.mu.Lock()
	if p.released {
		v.mu.Unlock()
		return
	}
	p.parked, p.idx = true, len(v.parked)
	v.parked = append(v.parked, p)
	p.npc = runtime.Callers(2, p.pcs[:])
	v.waiting++
	v.unlockAdvance()
	<-p.ch
}

// unpark releases p's goroutine. It is counted runnable again before unpark
// returns — under the clock's lock, while the caller is itself still
// runnable — so virtual time cannot move between the release and the resume.
func (v *Virtual) unpark(p *parker) {
	v.mu.Lock()
	p.released = true
	if p.parked {
		last := len(v.parked) - 1
		v.parked[p.idx] = v.parked[last]
		v.parked[p.idx].idx = p.idx
		v.parked[last] = nil
		v.parked = v.parked[:last]
		p.parked = false
		v.waiting--
		p.ch <- struct{}{}
	}
	v.mu.Unlock()
}

// Outside runs fn, in which the calling tracked goroutine waits on the world
// beyond the clock: a socket, an untracked goroutine. The wait holds the
// clock still — the caller stays counted as runnable, because what it waits
// for may be in flight where the clock cannot see it — except while a Join
// is running, which is the far side of that wait executing in clock time:
// each live Join accounts for one Outside waiter, and the Join's own worker
// then decides whether time may move. gateway.Client.Block takes this method.
func (v *Virtual) Outside(fn func()) {
	v.mu.Lock()
	v.outside++
	v.unlockAdvance()
	fn()
	v.mu.Lock()
	v.outside--
	v.mu.Unlock()
}

// Join runs fn on a tracked worker and waits for it on a plain channel: the
// caller is untracked, and a wait the clock could see would count a
// goroutine it never started. The worker registers as a Join for as long as
// fn runs, so a tracked goroutine waiting in Outside for this caller stops
// holding the clock exactly while fn can act on it.
func (v *Virtual) Join(fn func()) {
	done := make(chan struct{})
	v.mu.Lock()
	v.active++
	v.joins++
	v.mu.Unlock()
	go func() {
		defer close(done)
		defer func() {
			v.mu.Lock()
			v.joins--
			v.exitLocked()
		}()
		fn()
	}()
	<-done
}

// BlockOn runs fn with the caller outside the tracked set: it leaves as if it
// had returned and re-enters as if spawned by Go, so the counts stay exact
// but the caller may resume after time has moved on.
//
// Deprecated: kept only for benchmark/ladder.go. Wait with Group, Event or
// Sem; wrap a wait on the outside world in Outside.
func (v *Virtual) BlockOn(fn func()) {
	v.exit()
	fn()
	v.enter()
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
	v.mu.Lock()
	defer v.mu.Unlock()
	for v.active > 0 { // stragglers spawned by fn
		v.idle.Wait()
	}
	return v.now
}
