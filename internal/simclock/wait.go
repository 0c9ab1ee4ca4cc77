package simclock

import (
	"sync"
	"sync/atomic"
)

// waitq is the part Group, Event and Sem share: a mutex guarding their
// condition and the parkers of the goroutines waiting for it.
type waitq struct {
	clock   Clock
	mu      sync.Mutex
	waiters []*parker
	spare   atomic.Pointer[parker] // a parker whose wait is over, for the next park
}

// park enqueues the caller and parks it. Call with mu held; it unlocks. The
// parker is kept for the next park once its wait is over, so a lone waiter's
// park and release allocate nothing.
func (q *waitq) park() {
	p := q.spare.Swap(nil)
	if p == nil {
		p = newParker()
	} else {
		p.released = false
	}
	q.waiters = append(q.waiters, p)
	q.mu.Unlock()
	q.clock.park(p)
	q.spare.Store(p)
}

// releaseAll unparks every waiter. Call with mu held; it unlocks.
func (q *waitq) releaseAll() {
	ws := q.waiters
	q.waiters = nil
	q.mu.Unlock()
	for _, p := range ws {
		q.clock.unpark(p)
	}
}

// Group is a clock-aware sync.WaitGroup: Wait parks through the clock and the
// Done that brings the count to zero unparks the waiters before it returns.
type Group struct {
	q waitq
	n int
}

// NewGroup returns an empty Group on clock c.
func NewGroup(c Clock) *Group { return &Group{q: waitq{clock: c}} }

// Add adds delta, which may be negative, to the count.
func (g *Group) Add(delta int) {
	g.q.mu.Lock()
	g.n += delta
	switch {
	case g.n > 0:
		g.q.mu.Unlock()
	case g.n == 0:
		g.q.releaseAll()
	default:
		g.q.mu.Unlock()
		panic("simclock: negative Group counter")
	}
}

// Done decrements the count by one.
func (g *Group) Done() { g.Add(-1) }

// Go counts fn in and runs it on a goroutine tracked by the Group's clock.
func (g *Group) Go(fn func()) {
	g.Add(1)
	g.q.clock.Go(func() {
		defer g.Done()
		fn()
	})
}

// Wait blocks until the count is zero.
func (g *Group) Wait() {
	g.q.mu.Lock()
	if g.n == 0 {
		g.q.mu.Unlock()
		return
	}
	g.q.park()
}

// Event is a clock-aware one-shot latch, the role a closed channel plays.
type Event struct {
	q   waitq
	set bool
}

// NewEvent returns an unset Event on clock c.
func NewEvent(c Clock) *Event { return &Event{q: waitq{clock: c}} }

// Set releases every present and future Wait. Setting twice is harmless.
func (e *Event) Set() {
	e.q.mu.Lock()
	e.set = true
	e.q.releaseAll()
}

// Wait blocks until Set has been called.
func (e *Event) Wait() {
	e.q.mu.Lock()
	if e.set {
		e.q.mu.Unlock()
		return
	}
	e.q.park()
}

// Sem is a clock-aware counting semaphore; with one permit it is the lock to
// hold across a Sleep. Permits pass to waiters in arrival order.
type Sem struct {
	q    waitq
	free int
}

// NewSem returns a semaphore on clock c holding n permits.
func NewSem(c Clock, n int) *Sem { return &Sem{q: waitq{clock: c}, free: n} }

// Acquire takes a permit, waiting for a Release if none is free.
func (s *Sem) Acquire() {
	s.q.mu.Lock()
	if s.free > 0 {
		s.free--
		s.q.mu.Unlock()
		return
	}
	s.q.park()
}

// Release returns a permit, handing it straight to the longest waiter if
// there is one.
func (s *Sem) Release() {
	s.q.mu.Lock()
	if len(s.q.waiters) == 0 {
		s.free++
		s.q.mu.Unlock()
		return
	}
	p := s.q.waiters[0]
	n := copy(s.q.waiters, s.q.waiters[1:]) // in place: the array is kept for the next waiter
	s.q.waiters[n] = nil
	s.q.waiters = s.q.waiters[:n]
	s.q.mu.Unlock()
	s.q.clock.unpark(p)
}
