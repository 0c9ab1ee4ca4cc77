package faas

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/errs"
	"repro/internal/simclock"
)

// TestAdmissionShedAndFairness reproduces the multi-tenant isolation claim:
// an attacker firing a 40-wide burst is shed down to its fair share while a
// victim tenant's steady trickle is never throttled, and every shed request
// is itemized on the attacker's bill.
func TestAdmissionShedAndFairness(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	meter := billing.NewMeter()
	p := New(v, meter)
	must(t, p.Register("atk", "attacker", echo, Config{}))
	must(t, p.Register("vic", "victim", echo, Config{}))
	p.SetAdmission(AdmissionConfig{RatePerSecond: 20, Burst: 4, MaxQueue: 4, MaxWait: 500 * time.Millisecond})

	var mu sync.Mutex
	var atkErrs []error
	v.Run(func() {
		vicOffsets := make([]time.Duration, 10)
		for i := range vicOffsets {
			vicOffsets[i] = time.Duration(i) * 200 * time.Millisecond
		}
		atk := simclock.NewGroup(v)
		atk.Add(40)
		for i := 0; i < 40; i++ {
			p.InvokeAsyncFor("attacker", "atk", nil, func(_ Result, err error) {
				if err != nil {
					mu.Lock()
					atkErrs = append(atkErrs, err)
					mu.Unlock()
				}
				atk.Done()
			})
		}
		vicRep := Drive(p, "victim", "vic", nil, vicOffsets)
		atk.Wait()
		vicRep.Wait()
	})

	// Burst 4 admitted instantly + MaxQueue 4 queued; the other 32 shed.
	if got := p.AdmissionShed("attacker"); got != 32 {
		t.Errorf("attacker shed = %d, want 32", got)
	}
	if st, _ := p.StatsFor("attacker", "atk"); st.Invocations != 8 {
		t.Errorf("attacker admitted = %d, want 8", st.Invocations)
	}
	if got := p.AdmissionShed("victim"); got != 0 {
		t.Errorf("victim shed = %d, want 0", got)
	}
	if st, _ := p.StatsFor("victim", "vic"); st.Invocations != 10 || st.Throttles != 0 {
		t.Errorf("victim admitted = %d with %d throttled, want 10 and 0", st.Invocations, st.Throttles)
	}
	if len(atkErrs) != 32 {
		t.Fatalf("attacker errors = %d, want 32", len(atkErrs))
	}
	for _, err := range atkErrs {
		if !errors.Is(err, ErrTenantThrottled) {
			t.Fatalf("shed error %v does not match ErrTenantThrottled", err)
		}
		if !errors.Is(err, errs.ErrThrottled) {
			t.Fatalf("shed error %v does not match platform errs.ErrThrottled", err)
		}
		if errors.Is(err, ErrThrottled) {
			t.Fatalf("tenant shed %v must not match the concurrency-cap ErrThrottled", err)
		}
	}
	// Shedding is visible to billing, free but itemized.
	if got := meter.Units("attacker", billing.ResShedRequests); got != 32 {
		t.Errorf("billed shed units = %v, want 32", got)
	}
	if got := meter.Units("victim", billing.ResShedRequests); got != 0 {
		t.Errorf("victim billed shed units = %v, want 0", got)
	}
}

// TestAdmissionQueueDeterministic: arrivals beyond the burst reserve future
// tokens and sleep until their refill instant, so a same-instant burst
// drains at exactly the admitted rate under the virtual clock.
func TestAdmissionQueueDeterministic(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("q", "t", echo, Config{}))
	p.SetAdmission(AdmissionConfig{RatePerSecond: 10, Burst: 1, MaxQueue: 10, MaxWait: 10 * time.Second})

	v.Run(func() {
		start := v.Now()
		rep := Drive(p, "t", "q", nil, make([]time.Duration, 4))
		rep.Wait()
		if st, _ := p.StatsFor("t", "q"); st.Throttles != 0 {
			t.Fatalf("throttled = %d, want 0", st.Throttles)
		}
		// 1 token instantly, then refills at 10/s: the 4th admit lands at
		// t=300ms. Everything before that would mean queuing didn't pace.
		if el := v.Now().Sub(start); el < 300*time.Millisecond {
			t.Errorf("burst drained in %v, want ≥ 300ms of token pacing", el)
		}
	})
	if st, _ := p.StatsFor("t", "q"); st.Invocations != 4 {
		t.Errorf("admitted = %d, want 4", st.Invocations)
	}
	if got := p.AdmissionShed("t"); got != 0 {
		t.Errorf("shed = %d, want 0", got)
	}
}

// TestAdmissionDisable: a zero rate turns admission back off.
func TestAdmissionDisable(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("f", "t", echo, Config{}))
	p.SetAdmission(AdmissionConfig{RatePerSecond: 1, Burst: 1, MaxQueue: 1, MaxWait: time.Millisecond})
	p.SetAdmission(AdmissionConfig{})
	v.Run(func() {
		rep := Drive(p, "t", "f", nil, make([]time.Duration, 20))
		rep.Wait()
		if st, _ := p.StatsFor("t", "f"); st.Throttles != 0 || st.Invocations != 20 {
			t.Fatalf("with admission disabled: %d throttled of %d invoked, want 0 of 20", st.Throttles, st.Invocations)
		}
	})
	if got := p.AdmissionShed("t"); got != 0 {
		t.Errorf("shed = %d, want 0", got)
	}
}

// TestSetPoolTarget drives the pool up and down: growth provisions warm
// instances asynchronously, shrinkage trims idle instances but never below
// the Prewarm floor, and growth is capped by MaxConcurrency.
func TestSetPoolTarget(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("pw", "t", echo, Config{
		ColdStart: 100 * time.Millisecond, Prewarm: 1, KeepAlive: time.Hour,
	}))
	v.Run(func() {
		v.Sleep(time.Millisecond) // let Register's own prewarm settle
		started, err := p.SetPoolTarget("t", "pw", 3)
		must(t, err)
		if started != 2 { // prewarm already holds 1 idle
			t.Fatalf("started = %d, want 2", started)
		}
		st, _ := p.StatsFor("t", "pw")
		if st.Warming != 2 {
			t.Fatalf("warming = %d, want 2", st.Warming)
		}
		v.Sleep(200 * time.Millisecond) // cold starts complete
		st, _ = p.StatsFor("t", "pw")
		if st.Warming != 0 || st.WarmIdle != 3 {
			t.Fatalf("after warmup: warming=%d idle=%d, want 0/3", st.Warming, st.WarmIdle)
		}
		if tgt, ok := p.PoolTarget("t", "pw"); !ok || tgt != 3 {
			t.Fatalf("PoolTarget = %d,%v, want 3,true", tgt, ok)
		}
		// Trim to zero: the Prewarm floor of 1 holds.
		released, err := p.SetPoolTarget("t", "pw", 0)
		must(t, err)
		if released != -2 {
			t.Fatalf("released = %d, want -2 (floor keeps 1)", released)
		}
		st, _ = p.StatsFor("t", "pw")
		if st.WarmIdle != 1 {
			t.Fatalf("idle after trim = %d, want the Prewarm floor of 1", st.WarmIdle)
		}
	})

	// Growth is capped by MaxConcurrency.
	must(t, p.Register("capped", "t", echo, Config{MaxConcurrency: 2, ColdStart: time.Millisecond}))
	v.Run(func() {
		started, err := p.SetPoolTarget("t", "capped", 5)
		must(t, err)
		if started != 2 {
			t.Fatalf("started = %d, want MaxConcurrency cap of 2", started)
		}
	})

	if _, err := p.SetPoolTarget("t", "ghost", 1); !errors.Is(err, ErrNoFunction) {
		t.Fatalf("err = %v, want ErrNoFunction", err)
	}
	if _, ok := p.PoolTarget("t", "ghost"); ok {
		t.Fatal("PoolTarget(ghost) ok = true")
	}
}

// TestLoadsSnapshot: Loads reports per-function load sorted by name with
// the fields the autoscaler consumes.
func TestLoadsSnapshot(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("zeta", "t2", echo, Config{KeepAlive: time.Minute}))
	must(t, p.Register("alpha", "t1", worker(50*time.Millisecond), Config{
		KeepAlive: 30 * time.Second, Prewarm: 0, MemoryMB: 256,
	}))
	v.Run(func() {
		rep := Drive(p, "t1", "alpha", nil, make([]time.Duration, 3))
		rep.Wait()
	})
	loads := p.Loads()
	if len(loads) != 2 || loads[0].Name != "alpha" || loads[1].Name != "zeta" {
		t.Fatalf("loads = %+v, want [alpha zeta]", loads)
	}
	a := loads[0]
	if a.Tenant != "t1" || a.Invocations != 3 || a.WarmIdle != 3 {
		t.Errorf("alpha load = %+v", a)
	}
	if a.KeepAlive != 30*time.Second {
		t.Errorf("alpha keep-alive = %v", a.KeepAlive)
	}
	if a.Demand.MemMB != 256 {
		t.Errorf("alpha demand = %+v, want MemoryMB default applied", a.Demand)
	}
	if a.Pool() != 3 {
		t.Errorf("alpha pool = %d, want 3", a.Pool())
	}
}

// TestPercentileOK: the empty-window percentile is explicit, not a silent 0.
func TestPercentileOK(t *testing.T) {
	if v, ok := PercentileOK(nil, 99); ok || v != 0 {
		t.Fatalf("PercentileOK(nil) = %v,%v, want 0,false", v, ok)
	}
	ds := []time.Duration{4 * time.Millisecond, 1 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	if v, ok := PercentileOK(ds, 50); !ok || v != 2*time.Millisecond {
		t.Fatalf("p50 = %v,%v", v, ok)
	}
	if v, ok := PercentileOK(ds, 100); !ok || v != 4*time.Millisecond {
		t.Fatalf("p100 = %v,%v", v, ok)
	}
	// The legacy wrapper keeps its 0-on-empty contract.
	if Percentile(nil, 99) != 0 {
		t.Fatal("Percentile(nil) != 0")
	}
}
