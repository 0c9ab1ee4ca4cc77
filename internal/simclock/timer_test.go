package simclock

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestTimerBeatsSameInstantSleeper: a goroutine asleep until t resumes only
// after the timers due at t have run, even when it went to sleep before the
// timer was armed, and the callback reads Now() == t.
func TestTimerBeatsSameInstantSleeper(t *testing.T) {
	v := NewVirtual()
	var order []string
	var firedAt time.Duration
	tm := NewTimer(v, func() {
		firedAt = v.Elapsed()
		order = append(order, "timer")
	})
	v.Run(func() {
		v.Go(func() {
			v.Sleep(500 * time.Millisecond)
			tm.Reset(Epoch.Add(time.Second))
		})
		v.Sleep(time.Second)
		order = append(order, "sleeper")
	})
	if got := strings.Join(order, ","); got != "timer,sleeper" || firedAt != time.Second {
		t.Fatalf("order %s, timer at %v; want timer,sleeper at 1s", got, firedAt)
	}
}

// TestTimersSameInstantArmingOrder: timers due at one instant run one after
// another in the order they were last armed.
func TestTimersSameInstantArmingOrder(t *testing.T) {
	v := NewVirtual()
	var order []string
	timer := func(name string) *Timer {
		return NewTimer(v, func() { order = append(order, name) })
	}
	a, b, c := timer("a"), timer("b"), timer("c")
	at := Epoch.Add(time.Second)
	v.Run(func() {
		c.Reset(at)
		a.Reset(at)
		b.Reset(at)
		c.Reset(at) // re-armed: now last
		v.Sleep(2 * time.Second)
	})
	if got := strings.Join(order, ","); got != "a,b,c" {
		t.Fatalf("order %s, want a,b,c", got)
	}
}

// TestTimerResetFiresOnce: moving a pending timer earlier or later fires it
// once, at the instant it was last armed for.
func TestTimerResetFiresOnce(t *testing.T) {
	v := NewVirtual()
	var fired []time.Duration
	tm := NewTimer(v, func() { fired = append(fired, v.Elapsed()) })
	v.Run(func() {
		tm.Reset(Epoch.Add(10 * time.Second))
		tm.Reset(Epoch.Add(5 * time.Second)) // earlier
		v.Sleep(6 * time.Second)
		tm.Reset(Epoch.Add(20 * time.Second))
		tm.Reset(Epoch.Add(30 * time.Second)) // later
		v.Sleep(time.Minute)
	})
	if got := fmt.Sprint(fired); got != "[5s 30s]" {
		t.Fatalf("fired at %s, want [5s 30s]", got)
	}
}

// TestTimerResetAllocs: re-arming a timer allocates nothing on either clock.
func TestTimerResetAllocs(t *testing.T) {
	v := NewVirtual()
	vt := NewTimer(v, func() {})
	at := Epoch.Add(time.Hour)
	if n := testing.AllocsPerRun(100, func() {
		vt.Reset(at)
		at = at.Add(time.Nanosecond)
	}); n != 0 {
		t.Errorf("virtual re-arm: %v allocs, want 0", n)
	}
	rt := NewTimer(Real{}, func() {})
	if n := testing.AllocsPerRun(100, func() {
		rt.Reset(time.Now().Add(time.Hour))
	}); n != 0 {
		t.Errorf("real re-arm: %v allocs, want 0", n)
	}
}

// TestPendingTimerLeavesRunInstant: a timer still pending when the last
// tracked goroutine returns does not move the clock, so Run's instant and
// Elapsed are what the goroutines slept; a later Run that sleeps past it
// fires it at its instant.
func TestPendingTimerLeavesRunInstant(t *testing.T) {
	v := NewVirtual()
	var firedAt time.Duration
	tm := NewTimer(v, func() { firedAt = v.Elapsed() })
	end := v.Run(func() {
		tm.Reset(Epoch.Add(time.Hour))
		v.Sleep(time.Second)
	})
	if end != Epoch.Add(time.Second) || v.Elapsed() != time.Second || firedAt != 0 {
		t.Fatalf("Run ended at +%v, Elapsed %v, timer fired at %v; want +1s, 1s, not fired", end.Sub(Epoch), v.Elapsed(), firedAt)
	}
	v.Run(func() { v.Sleep(2 * time.Hour) })
	if firedAt != time.Hour {
		t.Fatalf("timer fired at %v in the second run, want 1h0m0s", firedAt)
	}
}

// TestTimerThenDeadlockReport: with every goroutine parked and a timer
// pending, the clock runs the timer at its instant, and only then, nothing
// being runnable, reports the deadlock. The report is a panic on the timer's
// goroutine, so the scenario runs in a child process.
func TestTimerThenDeadlockReport(t *testing.T) {
	if os.Getenv("SIMCLOCK_TIMER_DEADLOCK") == "1" {
		v := NewVirtual()
		tm := NewTimer(v, func() { fmt.Printf("timer fired at +%v\n", v.Elapsed()) })
		v.Run(func() {
			tm.Reset(Epoch.Add(time.Second))
			NewEvent(v).Wait()
		})
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTimerThenDeadlockReport$")
	cmd.Env = append(os.Environ(), "SIMCLOCK_TIMER_DEADLOCK=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child exited cleanly; want a deadlock panic:\n%s", out)
	}
	msg := string(out)
	fired := strings.Index(msg, "timer fired at +1s")
	report := strings.Index(msg, "simclock: deadlock at 2020-06-14T00:00:01Z (+1s): 1 goroutines parked, 0 sleeping")
	if fired < 0 || report < fired || !strings.Contains(msg, "timer_test.go:") {
		t.Fatalf("want the timer at +1s, then a deadlock report at +1s naming the Wait:\n%s", msg)
	}
}

// TestRealTimerFires: on the real clock a timer fires no earlier than its
// instant, and Reset after it fired arms it again.
func TestRealTimerFires(t *testing.T) {
	fired := make(chan time.Time, 1)
	tm := NewTimer(Real{}, func() { fired <- time.Now() })
	for i := 0; i < 2; i++ {
		at := time.Now().Add(2 * time.Millisecond)
		tm.Reset(at)
		select {
		case got := <-fired:
			if got.Before(at) {
				t.Fatalf("fired at %v, %v before its instant", got, at.Sub(got))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("arm %d: timer did not fire", i)
		}
	}
}
