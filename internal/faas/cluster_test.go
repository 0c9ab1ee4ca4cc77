package faas

import (
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/simclock"
)

func TestPrewarmEliminatesColdStarts(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("hot", "t", worker(10*time.Millisecond), Config{
		Prewarm: 4, ColdStart: 500 * time.Millisecond, WarmStart: time.Millisecond,
	}))
	v.Run(func() {
		// Four concurrent first requests: all should hit warm instances.
		rep := Drive(p, "t", "hot", nil, make([]time.Duration, 4))
		rep.Wait()
		for _, r := range rep.Results() {
			if r.Cold {
				t.Errorf("prewarmed function paid a cold start: %+v", r)
			}
		}
	})
	st, _ := p.StatsFor("t", "hot")
	if st.ColdStarts != 0 {
		t.Fatalf("cold starts = %d, want 0", st.ColdStarts)
	}
}

func TestPrewarmFloorSurvivesReaping(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("floor", "t", echo, Config{Prewarm: 2, KeepAlive: time.Minute}))
	v.Run(func() {
		// Burst to 6 instances.
		rep := Drive(p, "t", "floor", nil, make([]time.Duration, 6))
		rep.Wait()
		v.Sleep(10 * time.Minute) // way past keep-alive
		st, _ := p.StatsFor("t", "floor")
		if st.WarmIdle != 2 {
			t.Errorf("warm idle = %d, want the Prewarm floor of 2", st.WarmIdle)
		}
	})
}

func TestClusterPlacementAndRelease(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	cluster := scheduler.NewCluster(scheduler.Resources{CPU: 4000, MemMB: 16384}, scheduler.FirstFit{})
	p.AttachCluster(cluster, 0)
	must(t, p.Register("placed", "acme", worker(time.Second), Config{
		MemoryMB: 1024, KeepAlive: time.Minute,
	}))
	v.Run(func() {
		rep := Drive(p, "acme", "placed", nil, make([]time.Duration, 3))
		rep.Wait()
		if got := cluster.ActiveMachines(); got == 0 {
			t.Error("no machines active while instances warm")
		}
		v.Sleep(5 * time.Minute) // keep-alive lapses → the timer releases the instances
		if got := cluster.ActiveMachines(); got != 0 {
			t.Errorf("machines still active after scale-to-zero: %d", got)
		}
	})
}

func TestClusterCapacityThrottles(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	// One machine only fits two 2000-CPU instances; one-machine template.
	cluster := scheduler.NewCluster(scheduler.Resources{CPU: 4000, MemMB: 16384}, onlyOneMachine{})
	p.AttachCluster(cluster, 0)
	must(t, p.Register("tight", "t", worker(time.Second), Config{
		Demand: scheduler.Resources{CPU: 2000, MemMB: 512}, KeepAlive: time.Hour, MaxRetries: -1,
	}))
	v.Run(func() {
		rep := Drive(p, "t", "tight", nil, make([]time.Duration, 3))
		rep.Wait()
		if st, _ := p.StatsFor("t", "tight"); st.Throttles != 1 {
			t.Errorf("throttled = %d, want 1 (third instance unplaceable)", st.Throttles)
		}
	})
}

// TestRegisterIsAllOrNothing: a Register whose Prewarm placement fails
// releases every instance it placed and lists no function, so the name is
// free for a Register whose demand fits.
func TestRegisterIsAllOrNothing(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	// One machine only fits two 2000-CPU instances, and the fleet never grows.
	cluster := scheduler.NewCluster(scheduler.Resources{CPU: 4000, MemMB: 16384}, onlyOneMachine{})
	p.AttachCluster(cluster, 0)
	fits := scheduler.Resources{CPU: 2000, MemMB: 512}
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		// The third instance finds the machine full after two were placed.
		{"full", Config{Demand: fits, Prewarm: 3}, scheduler.ErrMachineFull},
		// The first instance fits no machine even when empty.
		{"unplaceable", Config{Demand: scheduler.Resources{CPU: 8000, MemMB: 512}, Prewarm: 1}, scheduler.ErrUnplaceable},
	}
	for _, c := range cases {
		if err := p.Register("f", "t", worker(time.Millisecond), c.cfg); !errors.Is(err, c.want) {
			t.Fatalf("%s: Register err = %v, want %v", c.name, err, c.want)
		}
		if _, ok := p.PoolTarget("t", "f"); ok {
			t.Errorf("%s: PoolTarget finds the function a failed Register left", c.name)
		}
		if _, err := p.StatsFor("t", "f"); !errors.Is(err, ErrNoFunction) {
			t.Errorf("%s: StatsFor err = %v, want ErrNoFunction", c.name, err)
		}
		for _, m := range cluster.Machines() {
			if m.Used != (scheduler.Resources{}) {
				t.Errorf("%s: machine %d still has %+v claimed", c.name, m.ID, m.Used)
			}
		}
	}
	must(t, p.Register("f", "t", worker(time.Millisecond), Config{Demand: fits, Prewarm: 2}))
	if st, err := p.StatsFor("t", "f"); err != nil || st.WarmIdle != 2 {
		t.Fatalf("after a fitting Register: stats %+v, err %v; want 2 warm idle", st, err)
	}
}

// TestUnplaceableColdStartIsNotAThrottle: a cold start whose demand fits no
// machine even when empty fails with the scheduler's capacity identity only,
// counts no throttle and is not retried. (One that finds a finite fleet full
// stays a throttle: TestClusterCapacityThrottles.)
func TestUnplaceableColdStartIsNotAThrottle(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	p.AttachCluster(scheduler.NewCluster(scheduler.Resources{CPU: 1000, MemMB: 1024}, scheduler.FirstFit{}), 0)
	must(t, p.Register("huge", "t", worker(time.Millisecond), Config{Demand: scheduler.Resources{CPU: 2000, MemMB: 512}}))
	v.Run(func() {
		start := v.Now()
		res, err := p.InvokeWithRetry("t", "huge", "", nil, obs.TraceCtx{}, RetryPolicy{MaxAttempts: 3})
		if !errors.Is(err, scheduler.ErrUnplaceable) || errors.Is(err, ErrThrottled) {
			t.Fatalf("err = %v, want scheduler.ErrUnplaceable and not ErrThrottled", err)
		}
		if res.Attempt != 1 || v.Now() != start {
			t.Errorf("attempt %d after %v: an unplaceable cold start was retried", res.Attempt, v.Now().Sub(start))
		}
	})
	if st, err := p.StatsFor("t", "huge"); err != nil || st.Throttles != 0 || st.Invocations != 0 {
		t.Errorf("stats %+v, err %v: want no throttle and no invocation", st, err)
	}
}

// onlyOneMachine is a test policy that refuses to grow beyond machine 0.
type onlyOneMachine struct{}

func (onlyOneMachine) Name() string { return "one-machine" }
func (onlyOneMachine) Choose(machines []*scheduler.Machine, demand scheduler.Resources, _ string) int {
	if len(machines) == 0 {
		return -1 // create the single machine
	}
	// Always answer machine 0: when it has no room, the cluster rejects
	// the placement (finite capacity) instead of growing.
	return 0
}

func TestInterferenceSlowdown(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	cluster := scheduler.NewCluster(scheduler.Resources{CPU: 4000, MemMB: 16384}, scheduler.FirstFit{})
	p.AttachCluster(cluster, 0.5) // +50% per contender
	must(t, p.Register("noisy", "t", worker(time.Second), Config{
		Demand:    scheduler.Resources{CPU: 1000, MemMB: 512}, // cpu-dominant; 4 fit per machine
		KeepAlive: time.Hour,
		ColdStart: time.Millisecond,
		WarmStart: time.Millisecond,
	}))
	v.Run(func() {
		// Alone: 1s of work takes 1s.
		res, err := p.InvokeFor("t", "noisy", nil)
		must(t, err)
		if res.Latency > 1100*time.Millisecond {
			t.Errorf("solo latency %v", res.Latency)
		}
		// Four concurrent instances on one machine: 3 contenders each →
		// slowdown 2.5× → ~2.5s.
		rep := Drive(p, "t", "noisy", nil, make([]time.Duration, 4))
		rep.Wait()
		sawSlow := false
		for _, r := range rep.Results() {
			if r.Latency > 2*time.Second {
				sawSlow = true
			}
		}
		if !sawSlow {
			t.Error("no invocation suffered interference slowdown")
		}
	})
}
