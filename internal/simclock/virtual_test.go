package simclock

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRealClockBasics(t *testing.T) {
	var c Clock = Real{}
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Now().Sub(t0) < time.Millisecond {
		t.Fatalf("Real.Sleep did not sleep")
	}
	done := make(chan struct{})
	c.Go(func() { close(done) })
	c.BlockOn(func() { <-done })
}

func TestRealSleepNonPositive(t *testing.T) {
	var c Clock = Real{}
	t0 := time.Now()
	c.Sleep(0)
	c.Sleep(-time.Hour)
	if time.Since(t0) > 100*time.Millisecond {
		t.Fatalf("non-positive Sleep blocked")
	}
}

func TestVirtualSleepAdvances(t *testing.T) {
	v := NewVirtual()
	defer v.Close()
	end := v.Run(func() {
		v.Sleep(3 * time.Hour)
	})
	if got := end.Sub(Epoch); got != 3*time.Hour {
		t.Fatalf("elapsed = %v, want 3h", got)
	}
}

func TestVirtualZeroSleep(t *testing.T) {
	v := NewVirtual()
	defer v.Close()
	end := v.Run(func() {
		v.Sleep(0)
		v.Sleep(-time.Minute)
	})
	if end != Epoch {
		t.Fatalf("time moved on non-positive sleep: %v", end.Sub(Epoch))
	}
}

func TestVirtualConcurrentSleepersOrdering(t *testing.T) {
	v := NewVirtual()
	defer v.Close()
	var mu sync.Mutex
	var order []int
	v.Run(func() {
		var wg sync.WaitGroup
		delays := []time.Duration{30 * time.Minute, 10 * time.Minute, 20 * time.Minute}
		for i, d := range delays {
			i, d := i, d
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				v.Sleep(d)
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
		v.BlockOn(wg.Wait)
	})
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestVirtualParallelSleepOverlap(t *testing.T) {
	// N goroutines each sleeping 1h in parallel must advance the clock by
	// exactly 1h, not N hours.
	v := NewVirtual()
	defer v.Close()
	end := v.Run(func() {
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				v.Sleep(time.Hour)
			})
		}
		v.BlockOn(wg.Wait)
	})
	if got := end.Sub(Epoch); got != time.Hour {
		t.Fatalf("elapsed = %v, want 1h", got)
	}
}

func TestVirtualSequentialSleepsAccumulate(t *testing.T) {
	v := NewVirtual()
	defer v.Close()
	end := v.Run(func() {
		for i := 0; i < 100; i++ {
			v.Sleep(time.Second)
		}
	})
	if got := end.Sub(Epoch); got != 100*time.Second {
		t.Fatalf("elapsed = %v, want 100s", got)
	}
}

func TestVirtualDeterminism(t *testing.T) {
	run := func() []time.Duration {
		v := NewVirtual()
		defer v.Close()
		var mu sync.Mutex
		var stamps []time.Duration
		v.Run(func() {
			var wg sync.WaitGroup
			for i := 1; i <= 8; i++ {
				i := i
				wg.Add(1)
				v.Go(func() {
					defer wg.Done()
					v.Sleep(time.Duration(i) * time.Minute)
					mu.Lock()
					stamps = append(stamps, v.Now().Sub(Epoch))
					mu.Unlock()
					v.Sleep(time.Duration(9-i) * time.Minute)
				})
			}
			v.BlockOn(wg.Wait)
		})
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run mismatch at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestVirtualBlockOnChannel(t *testing.T) {
	// A consumer blocked on a channel must not stall the clock: the
	// producer sleeps, time advances, the message arrives.
	v := NewVirtual()
	defer v.Close()
	var got time.Duration
	v.Run(func() {
		ch := make(chan struct{})
		v.Go(func() {
			v.Sleep(42 * time.Second)
			close(ch)
		})
		v.BlockOn(func() { <-ch })
		got = v.Now().Sub(Epoch)
	})
	if got != 42*time.Second {
		t.Fatalf("consumer resumed at %v, want 42s", got)
	}
}

func TestVirtualPipelineThroughChannels(t *testing.T) {
	// Producer → consumer pipeline: producer adds 1s of virtual latency per
	// item; consumer tallies. Total elapsed must be items × 1s.
	v := NewVirtual()
	defer v.Close()
	const items = 5
	var processed int64
	end := v.Run(func() {
		ch := make(chan int)
		v.Go(func() {
			for i := 0; i < items; i++ {
				v.Sleep(time.Second)
				x := i
				v.BlockOn(func() { ch <- x })
			}
			close(ch)
		})
		v.BlockOn(func() {
			for range ch {
				atomic.AddInt64(&processed, 1)
			}
		})
	})
	if processed != items {
		t.Fatalf("processed = %d, want %d", processed, items)
	}
	if got := end.Sub(Epoch); got != items*time.Second {
		t.Fatalf("elapsed = %v, want %v", got, items*time.Second)
	}
}

func TestVirtualElapsed(t *testing.T) {
	v := NewVirtual()
	defer v.Close()
	v.Run(func() { v.Sleep(90 * time.Second) })
	if v.Elapsed() != 90*time.Second {
		t.Fatalf("Elapsed = %v", v.Elapsed())
	}
}

func TestVirtualManyGoroutinesStress(t *testing.T) {
	v := NewVirtual()
	defer v.Close()
	var count int64
	end := v.Run(func() {
		var wg sync.WaitGroup
		for i := 0; i < 200; i++ {
			i := i
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				for j := 0; j < 5; j++ {
					v.Sleep(time.Duration(1+(i+j)%7) * time.Second)
					atomic.AddInt64(&count, 1)
				}
			})
		}
		v.BlockOn(wg.Wait)
	})
	if count != 1000 {
		t.Fatalf("count = %d, want 1000", count)
	}
	if end.Sub(Epoch) > 35*time.Second || end.Sub(Epoch) < 5*time.Second {
		t.Fatalf("implausible elapsed %v", end.Sub(Epoch))
	}
}

// goid names the calling goroutine, from the header line of its stack trace
// ("goroutine 18 [running]:").
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestRealJoinRunsOnCaller: under the real clock Join is a plain call — fn
// runs on the caller's goroutine and has returned when Join does.
func TestRealJoinRunsOnCaller(t *testing.T) {
	var c Clock = Real{}
	var ran string
	c.Join(func() { ran = goid() })
	if ran != goid() {
		t.Fatalf("fn ran on goroutine %s, Join was called on %s", ran, goid())
	}
}

// TestVirtualJoinFromUntrackedGoroutine is the gateway's situation: a tracked
// driver waits in BlockOn for a goroutine the clock never started (the HTTP
// handler), which runs clock-timed work through Join. fn's Sleep must advance
// virtual time by exactly its duration, Join must return only after fn, the
// untracked wait must not read as a deadlock (the driver would panic), and
// every repetition must see the same elapsed time.
func TestVirtualJoinFromUntrackedGoroutine(t *testing.T) {
	const d = 7 * time.Millisecond
	for rep := 0; rep < 50; rep++ {
		v := NewVirtual()
		var slept time.Duration
		var fnDone, sameGoroutine bool
		v.Run(func() {
			handled := make(chan struct{})
			go func() { // untracked, like a net/http handler goroutine
				defer close(handled)
				caller := goid()
				v.Join(func() {
					t0 := v.Now()
					v.Sleep(d)
					slept = v.Now().Sub(t0)
					sameGoroutine = goid() == caller
					fnDone = true
				})
				if !fnDone {
					t.Error("Join returned before fn did")
				}
			}()
			v.BlockOn(func() { <-handled })
		})
		v.Close()
		if sameGoroutine {
			t.Fatal("fn ran on the untracked caller: its Sleep is invisible to the clock")
		}
		if slept != d || v.Elapsed() != d {
			t.Fatalf("rep %d: fn slept %v, clock elapsed %v; want %v for both", rep, slept, v.Elapsed(), d)
		}
	}
}
