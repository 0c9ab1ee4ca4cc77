package simclock

import (
	"runtime"
	"testing"
	"time"
)

// TestSemHandsOffInArrivalOrder: waiters that arrive at different virtual
// instants get the permit in that order, whatever order they were spawned in.
func TestSemHandsOffInArrivalOrder(t *testing.T) {
	v := NewVirtual()
	defer v.Close()
	var order []int
	end := v.Run(func() {
		lock := NewSem(v, 1)
		lock.Acquire()
		waiters := NewGroup(v)
		for _, i := range []int{2, 0, 1} {
			waiters.Go(func() {
				v.Sleep(time.Duration(i+1) * time.Second)
				lock.Acquire()
				order = append(order, i) // under the lock
				v.Sleep(time.Minute)
				lock.Release()
			})
		}
		v.Sleep(time.Hour)
		lock.Release()
		waiters.Wait()
	})
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("grant order = %v, want [0 1 2]", order)
	}
	if got := end.Sub(Epoch); got != time.Hour+3*time.Minute {
		t.Fatalf("elapsed = %v, want 1h3m", got)
	}
}

// TestGroupReuse: a Group can be waited on, refilled and waited on again,
// and a Wait on an empty Group returns at once.
func TestGroupReuse(t *testing.T) {
	v := NewVirtual()
	defer v.Close()
	end := v.Run(func() {
		g := NewGroup(v)
		g.Wait()
		for round := 0; round < 3; round++ {
			for i := 0; i < 4; i++ {
				g.Go(func() { v.Sleep(time.Second) })
			}
			g.Wait()
		}
	})
	if got := end.Sub(Epoch); got != 3*time.Second {
		t.Fatalf("elapsed = %v, want 3s", got)
	}
}

// TestWaitHelpersOnRealClock: the same helpers block and release on the wall
// clock, where park and unpark are a channel receive and send.
func TestWaitHelpersOnRealClock(t *testing.T) {
	c := Real{}
	sem, ready, g := NewSem(c, 0), NewEvent(c), NewGroup(c)
	n := 0
	for i := 0; i < 8; i++ {
		g.Go(func() {
			ready.Wait()
			sem.Acquire()
			n++ // under the semaphore
			sem.Release()
		})
	}
	ready.Set()
	ready.Set()
	sem.Release()
	g.Wait()
	if n != 8 {
		t.Fatalf("n = %d, want 8", n)
	}
}

// TestSemParkReleaseZeroAllocs: once a Sem has had a waiter, a lone waiter's
// park and the Release that wakes it allocate nothing: the parker and the
// waiter list are reused.
func TestSemParkReleaseZeroAllocs(t *testing.T) {
	const runs = 1000
	s, woke := NewSem(Real{}, 0), make(chan struct{})
	go func() {
		// One more than runs: AllocsPerRun makes a warm-up call.
		for i := 0; i < runs+1; i++ {
			s.Acquire()
			woke <- struct{}{}
		}
	}()
	parked := func() bool {
		s.q.mu.Lock()
		defer s.q.mu.Unlock()
		return len(s.q.waiters) == 1
	}
	if n := testing.AllocsPerRun(runs, func() {
		for !parked() {
			runtime.Gosched()
		}
		s.Release()
		<-woke
	}); n != 0 {
		t.Fatalf("a Sem park/release cycle allocates %v, want 0", n)
	}
}
