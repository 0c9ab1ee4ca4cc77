package simclock

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
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
	done := NewEvent(c)
	c.Go(done.Set)
	done.Wait()
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
		wg := NewGroup(v)
		delays := []time.Duration{30 * time.Minute, 10 * time.Minute, 20 * time.Minute}
		for i, d := range delays {
			i, d := i, d
			wg.Go(func() {
				v.Sleep(d)
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
		wg.Wait()
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
		wg := NewGroup(v)
		for i := 0; i < 16; i++ {
			wg.Go(func() {
				v.Sleep(time.Hour)
			})
		}
		wg.Wait()
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
			wg := NewGroup(v)
			for i := 1; i <= 8; i++ {
				wg.Go(func() {
					v.Sleep(time.Duration(i) * time.Minute)
					mu.Lock()
					stamps = append(stamps, v.Now().Sub(Epoch))
					mu.Unlock()
					v.Sleep(time.Duration(9-i) * time.Minute)
				})
			}
			wg.Wait()
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

func TestVirtualEventWait(t *testing.T) {
	// A consumer waiting on an Event must not stall the clock: the
	// producer sleeps, time advances, the event is set.
	v := NewVirtual()
	defer v.Close()
	var got time.Duration
	v.Run(func() {
		ready := NewEvent(v)
		v.Go(func() {
			v.Sleep(42 * time.Second)
			ready.Set()
		})
		ready.Wait()
		got = v.Now().Sub(Epoch)
	})
	if got != 42*time.Second {
		t.Fatalf("consumer resumed at %v, want 42s", got)
	}
}

func TestVirtualPipelineThroughSems(t *testing.T) {
	// Producer → consumer rendezvous over a pair of semaphores: the producer
	// adds 1s of virtual latency per item; the consumer tallies. Total elapsed
	// must be items × 1s.
	v := NewVirtual()
	defer v.Close()
	const items = 5
	var processed int
	end := v.Run(func() {
		full, empty := NewSem(v, 0), NewSem(v, 1)
		v.Go(func() {
			for i := 0; i < items; i++ {
				v.Sleep(time.Second)
				empty.Acquire()
				full.Release()
			}
		})
		for i := 0; i < items; i++ {
			full.Acquire()
			processed++
			empty.Release()
		}
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
		wg := NewGroup(v)
		for i := 0; i < 2000; i++ {
			wg.Go(func() {
				for j := 0; j < 5; j++ {
					v.Sleep(time.Duration(1+(i+j)%7) * time.Second)
					atomic.AddInt64(&count, 1)
				}
			})
		}
		wg.Wait()
	})
	if count != 10000 {
		t.Fatalf("count = %d, want 10000", count)
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
// driver waits in Outside for a goroutine the clock never started (the HTTP
// handler), which runs clock-timed work through Join. fn's Sleep must advance
// virtual time by exactly its duration, Join must return only after fn, the
// untracked wait must not read as a deadlock (the clock would panic), and
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
			v.Outside(func() { <-handled })
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

// TestResumeExactness: a waiter released at virtual t reads Now() == t, even
// though a background sleeper is due an hour later and the garbage collector
// is made to run almost continuously — the release marks the waiter runnable
// under the clock's lock, so no scheduling delay lets time slip past it.
func TestResumeExactness(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		v := NewVirtual()
		v.Run(func() {
			for i := 0; i < 1000; i++ {
				var released time.Time
				background := NewGroup(v)
				background.Go(func() { v.Sleep(time.Millisecond + time.Hour) })
				var wait func()
				release := func() { v.Sleep(time.Millisecond); released = v.Now() }
				switch i % 3 {
				case 0:
					e := NewEvent(v)
					v.Go(func() { release(); e.Set() })
					wait = e.Wait
				case 1:
					g := NewGroup(v)
					g.Go(release)
					wait = g.Wait
				default:
					s := NewSem(v, 0)
					v.Go(func() { release(); s.Release() })
					wait = s.Acquire
				}
				wait()
				if got := v.Now(); !got.Equal(released) {
					t.Fatalf("GOMAXPROCS=%d iteration %d: released at +%v, resumed at +%v",
						procs, i, released.Sub(Epoch), got.Sub(Epoch))
				}
				background.Wait()
			}
		})
	}
}

// wireServer serves /plain, which answers at once, and /join, which sleeps d
// of v's time inside Join first — a gateway's Register and Invoke.
func wireServer(v *Virtual, d time.Duration) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/join" {
			v.Join(func() { v.Sleep(d) })
		}
		w.WriteHeader(http.StatusNoContent)
	}))
}

// get is one HTTP round trip by a tracked goroutine: a wait on the world
// outside the clock.
func get(t *testing.T, v *Virtual, url string) {
	v.Outside(func() {
		resp, err := http.Get(url)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	})
}

// TestWireExactness: a tracked client calls an HTTP server whose handler
// sleeps 100 ms of virtual time inside Join, while a background ticker
// sleeps second after second. The client must observe exactly 100 ms, and a
// round trip that never Joins must not move virtual time at all: requests
// and responses in flight hold the clock, however long the wire takes.
func TestWireExactness(t *testing.T) {
	const d = 100 * time.Millisecond
	v := NewVirtual()
	srv := wireServer(v, d)
	defer srv.Close()
	v.Run(func() {
		var stop atomic.Bool
		v.Go(func() {
			for !stop.Load() {
				v.Sleep(time.Second)
			}
		})
		for i := 0; i < 200; i++ {
			t0 := v.Now()
			get(t, v, srv.URL+"/plain")
			if moved := v.Now().Sub(t0); moved != 0 {
				t.Fatalf("iteration %d: virtual time moved %v during a round trip that never Joined", i, moved)
			}
			get(t, v, srv.URL+"/join")
			if lat := v.Now().Sub(t0); lat != d {
				t.Fatalf("iteration %d: observed latency %v, want exactly %v", i, lat, d)
			}
		}
		stop.Store(true)
	})
}

// TestWireInFlightHoldsClock: two tracked clients. The first one's Join is
// asleep for an hour when the second one's request is still on its way to a
// handler. A live Join accounts for one Outside waiter only, so the clock
// must not jump that hour: the second request still Joins at the start
// instant and its client sees exactly its own millisecond.
func TestWireInFlightHoldsClock(t *testing.T) {
	v := NewVirtual()
	firstAsleep := make(chan struct{})
	var atSecondJoin time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/first":
			v.Join(func() {
				close(firstAsleep)
				v.Sleep(time.Hour)
			})
		case "/second":
			<-firstAsleep
			// Not synchronisation: a clock that ignored the request in flight
			// would use this moment to run ahead.
			time.Sleep(2 * time.Millisecond)
			v.Join(func() {
				atSecondJoin = v.Now()
				v.Sleep(time.Millisecond)
			})
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	var first, second time.Duration
	v.Run(func() {
		clients := NewGroup(v)
		clients.Go(func() { get(t, v, srv.URL+"/first"); first = v.Elapsed() })
		clients.Go(func() { get(t, v, srv.URL+"/second"); second = v.Elapsed() })
		clients.Wait()
	})
	if !atSecondJoin.Equal(Epoch) {
		t.Errorf("the clock ran +%v ahead of a request in flight", atSecondJoin.Sub(Epoch))
	}
	if second != time.Millisecond || first != time.Hour {
		t.Errorf("clients finished at +%v and +%v, want +1ms and +1h", second, first)
	}
}

// TestDeadlockReportedAtOnce: two goroutines each waiting for the other are a
// deadlock the instant the second one parks; the clock panics there, naming
// the virtual time, the census and both park sites.
func TestDeadlockReportedAtOnce(t *testing.T) {
	v := NewVirtual()
	a, b := NewEvent(v), NewEvent(v)
	reports := make(chan any, 2)
	start := time.Now()
	// Tracked by hand, not by Go: the goroutine that panics has nothing
	// to return to, and Go's exit accounting would trip over that. Both are
	// counted before either starts, so the first park is not yet a deadlock.
	v.enter()
	v.enter()
	for _, pair := range [][2]*Event{{a, b}, {b, a}} {
		wait, set := pair[0], pair[1]
		go func() {
			defer func() { reports <- recover() }()
			wait.Wait()
			set.Set()
		}()
	}
	var report any
	select {
	case report = <-reports:
	case <-time.After(5 * time.Second):
		t.Fatal("no deadlock reported")
	}
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Errorf("deadlock reported after %v of wall time, want at once", took)
	}
	msg, _ := report.(string)
	for _, want := range []string{"deadlock at 2020-06-14T00:00:00Z (+0s)", "2 goroutines parked, 0 sleeping", "virtual_test.go:"} {
		if !strings.Contains(msg, want) {
			t.Errorf("report %q does not mention %q", msg, want)
		}
	}
	if n := strings.Count(msg, "virtual_test.go:"); n != 1 {
		t.Errorf("report lists %d park sites, want the one Wait line counted twice:\n%s", n, msg)
	}
	a.Set() // let the survivor go
	b.Set()
	<-reports
}

// TestBlockOnCompat pins the deprecated shim to the one shape still using it
// (benchmark/ladder.go's simclock.advance_us rung): the root leaves the
// tracked set around a plain WaitGroup while four workers sleep in lockstep.
// Delete it with the shim.
func TestBlockOnCompat(t *testing.T) {
	v := NewVirtual()
	defer v.Close()
	v.Run(func() {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					v.Sleep(time.Millisecond)
				}
			})
		}
		v.BlockOn(wg.Wait)
	})
	if got := v.Elapsed(); got != 50*time.Millisecond {
		t.Fatalf("elapsed = %v, want 50ms", got)
	}
}
