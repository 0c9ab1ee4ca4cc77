package faas

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
)

// TestIdleInstanceLeavesAtKeepAlive: an idle instance is released at exactly
// idleSince + KeepAlive by its function's keep-alive timer. Nothing invokes,
// and nothing reads the function, between the invoke and the end of the run.
func TestIdleInstanceLeavesAtKeepAlive(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	defer p.Close()
	must(t, p.Register("f", "t", worker(100*time.Millisecond), Config{KeepAlive: time.Minute}))
	var idleSince time.Time
	v.Run(func() {
		_, err := p.InvokeFor("t", "f", nil)
		must(t, err)
		idleSince = v.Now()
		v.Sleep(5 * time.Minute)
	})
	st, err := p.StatsFor("t", "f")
	must(t, err)
	want := []ScalePoint{{At: simclock.Epoch, Instances: 1}, {At: idleSince.Add(time.Minute), Instances: 0}}
	if len(st.Timeline) != len(want) || st.Timeline[0] != want[0] || !st.Timeline[1].At.Equal(want[1].At) || st.Timeline[1].Instances != 0 {
		t.Fatalf("timeline = %v, want %v", st.Timeline, want)
	}
	if st.WarmIdle != 0 {
		t.Fatalf("warm idle = %d after the keep-alive, want 0", st.WarmIdle)
	}
}

// TestLapsedInstanceNotReused: an invoke at the expiry instant is cold, and so
// is one that finds a lapsed instance the timer has not reaped yet (on the
// real clock, an AfterFunc can run after the instant it was set for).
func TestLapsedInstanceNotReused(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	defer p.Close()
	must(t, p.Register("f", "t", echo, Config{KeepAlive: time.Minute, WarmStart: -1}))
	v.Run(func() {
		_, err := p.InvokeFor("t", "f", nil)
		must(t, err)
		v.Sleep(time.Minute) // to the expiry instant, exactly
		res, err := p.InvokeFor("t", "f", nil)
		must(t, err)
		if !res.Cold {
			t.Error("an invoke at the expiry instant reused the lapsed instance")
		}

		// Backdate the idle instance while its timer waits a minute out.
		fn, _ := p.lookup("t", "f")
		fn.mu.Lock()
		fn.idle[0].idleSince = v.Now().Add(-time.Minute)
		fn.mu.Unlock()
		res, err = p.InvokeFor("t", "f", nil)
		must(t, err)
		if !res.Cold {
			t.Error("an invoke reused a lapsed instance the timer had yet to reap")
		}
	})
}

// TestPrewarmFloorTimerQuiet: a function at its Prewarm floor has no pending
// keep-alive timer; one above it has, until the timer reaps it back down.
func TestPrewarmFloorTimerQuiet(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	defer p.Close()
	must(t, p.Register("f", "t", worker(time.Second), Config{Prewarm: 2, KeepAlive: time.Minute}))
	fn, _ := p.lookup("t", "f")
	pending := func() bool {
		fn.mu.Lock()
		defer fn.mu.Unlock()
		return fn.kaArmed
	}
	v.Run(func() {
		for i := 0; i < 3; i++ { // sequential: one floor instance serves them all
			_, err := p.InvokeFor("t", "f", nil)
			must(t, err)
		}
		if pending() {
			t.Error("a function at its floor has a pending keep-alive timer")
		}
		Drive(p, "t", "f", nil, make([]time.Duration, 4)).Wait()
		if !pending() {
			t.Error("4 idle instances over a floor of 2, and no keep-alive timer pending")
		}
		v.Sleep(2 * time.Minute)
		if pending() {
			t.Error("the timer reaped down to the floor and still re-armed")
		}
	})
	if st, _ := p.StatsFor("t", "f"); st.WarmIdle != 2 {
		t.Fatalf("warm idle = %d, want the Prewarm floor of 2", st.WarmIdle)
	}
}

// TestKeepAliveReapRacesInvokes: on the real clock the keep-alive timer runs
// on its own goroutine, beside invokes that take and return instances. Under
// -race the pool stays consistent, and once the invokes stop every instance
// leaves with no invoke and no reaping read.
func TestKeepAliveReapRacesInvokes(t *testing.T) {
	p := New(simclock.Real{}, nil)
	defer p.Close()
	must(t, p.Register("f", "t", echo, Config{KeepAlive: time.Millisecond, ColdStart: time.Nanosecond, WarmStart: time.Nanosecond}))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				if _, err := p.InvokeFor("t", "f", nil); err != nil {
					t.Error(err)
					return
				}
				if n%20 == 0 {
					time.Sleep(2 * time.Millisecond) // the others' instances lapse meanwhile
				}
			}
		}()
	}
	wg.Wait()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := p.StatsFor("t", "f")
		must(t, err)
		if st.WarmIdle == 0 && st.Running == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d instances idle 5s after the last invoke, with a 1ms keep-alive", st.WarmIdle)
		}
	}
}

// platformSentinel is what TestDroppedPlatformIsCollected watches: larger than
// the 16 B tiny-allocator block and pointer-free, so its finalizer runs when
// it alone becomes unreachable.
type platformSentinel [64]byte

// TestDroppedPlatformIsCollected: a platform whose handle is dropped, with a
// keep-alive timer still pending, is collected. The finalizer New sets closes
// it, and the pending timer holds only the closed cell, so a sentinel only a
// registered handler refers to is finalized within a few collections.
func TestDroppedPlatformIsCollected(t *testing.T) {
	for _, tc := range []struct {
		name    string
		virtual bool
	}{{"real", false}, {"virtual", true}} {
		t.Run(tc.name, func(t *testing.T) {
			v := simclock.NewVirtual() // kept alive past the drop: its heap holds the pending timer
			defer v.Close()
			freed := make(chan struct{})
			dropPlatform(t, v, tc.virtual, freed)
			for i := 0; i < 10; i++ {
				runtime.GC()
				select {
				case <-freed:
					return
				case <-time.After(100 * time.Millisecond):
				}
			}
			t.Fatal("a dropped platform with a pending keep-alive timer was never collected")
		})
	}
}

// dropPlatform builds a platform, on v or on the real clock, whose one
// handler refers to a sentinel; invokes it, so an instance goes idle and arms
// the keep-alive timer; and returns without the platform escaping.
func dropPlatform(t *testing.T, v *simclock.Virtual, virtual bool, freed chan struct{}) {
	var clock simclock.Clock = simclock.Real{}
	run := func(f func()) { f() }
	if virtual {
		clock, run = v, func(f func()) { v.Run(f) }
	}
	p := New(clock, nil)
	s := new(platformSentinel)
	runtime.SetFinalizer(s, func(*platformSentinel) { close(freed) })
	must(t, p.Register("f", "t", func(_ *Ctx, payload []byte) ([]byte, error) {
		runtime.KeepAlive(s)
		return payload, nil
	}, Config{ColdStart: time.Microsecond, WarmStart: -1}))
	run(func() {
		_, err := p.InvokeFor("t", "f", nil)
		must(t, err)
	})
	fn, _ := p.lookup("t", "f")
	fn.mu.Lock()
	armed := fn.kaArmed
	fn.mu.Unlock()
	if !armed {
		t.Fatal("no keep-alive timer pending when the platform is dropped")
	}
}
