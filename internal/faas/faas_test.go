package faas

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/simclock"
)

func echo(ctx *Ctx, payload []byte) ([]byte, error) { return payload, nil }

func worker(d time.Duration) Handler {
	return func(ctx *Ctx, payload []byte) ([]byte, error) {
		ctx.Work(d)
		return payload, nil
	}
}

func TestRegisterInvoke(t *testing.T) {
	p := New(simclock.Real{}, nil)
	must(t, p.Register("echo", "t", echo, Config{}))
	res, err := p.InvokeFor("t", "echo", []byte("hi"))
	must(t, err)
	if string(res.Output) != "hi" || !res.Cold {
		t.Fatalf("res = %+v", res)
	}
	// Second invoke reuses the warm instance.
	res2, err := p.InvokeFor("t", "echo", []byte("again"))
	must(t, err)
	if res2.Cold {
		t.Fatal("second invocation was cold")
	}
}

func TestRegisterDuplicateAndMissing(t *testing.T) {
	p := New(simclock.Real{}, nil)
	must(t, p.Register("f", "t", echo, Config{}))
	if err := p.Register("f", "t", echo, Config{}); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v", err)
	}
	if _, err := p.InvokeFor("t", "ghost", nil); !errors.Is(err, ErrNoFunction) {
		t.Fatalf("err = %v", err)
	}
	must(t, p.UnregisterFor("t", "f"))
	if err := p.UnregisterFor("t", "f"); !errors.Is(err, ErrNoFunction) {
		t.Fatalf("err = %v", err)
	}
}

func TestColdVsWarmLatency(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	cfg := Config{ColdStart: 200 * time.Millisecond, WarmStart: time.Millisecond, KeepAlive: time.Hour}
	must(t, p.Register("f", "t", worker(10*time.Millisecond), cfg))
	v.Run(func() {
		res1, err := p.InvokeFor("t", "f", nil)
		must(t, err)
		if res1.Latency != 210*time.Millisecond {
			t.Errorf("cold latency = %v, want 210ms", res1.Latency)
		}
		res2, err := p.InvokeFor("t", "f", nil)
		must(t, err)
		if res2.Latency != 11*time.Millisecond {
			t.Errorf("warm latency = %v, want 11ms", res2.Latency)
		}
	})
}

func TestKeepAliveExpiryCausesColdStart(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("f", "t", echo, Config{KeepAlive: time.Minute}))
	v.Run(func() {
		_, err := p.InvokeFor("t", "f", nil)
		must(t, err)
		v.Sleep(30 * time.Second)
		res, err := p.InvokeFor("t", "f", nil)
		must(t, err)
		if res.Cold {
			t.Error("instance reaped before keep-alive lapsed")
		}
		v.Sleep(2 * time.Minute)
		res, err = p.InvokeFor("t", "f", nil)
		must(t, err)
		if !res.Cold {
			t.Error("instance survived past keep-alive")
		}
	})
}

func TestScaleToZero(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("f", "t", echo, Config{KeepAlive: time.Minute}))
	v.Run(func() {
		for i := 0; i < 3; i++ {
			_, err := p.InvokeFor("t", "f", nil)
			must(t, err)
		}
		st, _ := p.StatsFor("t", "f")
		if st.WarmIdle != 1 {
			t.Errorf("warm idle = %d, want 1 (sequential reuse)", st.WarmIdle)
		}
		v.Sleep(5 * time.Minute)
		st, _ = p.StatsFor("t", "f")
		if st.WarmIdle != 0 || st.Running != 0 {
			t.Errorf("did not scale to zero: %+v", st)
		}
	})
}

func TestDemandDrivenScaleOut(t *testing.T) {
	// N concurrent invocations of a slow function must provision N instances.
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("f", "t", worker(time.Second), Config{KeepAlive: time.Hour}))
	var end time.Time
	v.Run(func() {
		rep := Drive(p, "t", "f", nil, make([]time.Duration, 8)) // 8 arrivals at t=0
		rep.Wait()
		end = v.Now()
		st, _ := p.StatsFor("t", "f")
		if st.ColdStarts != 8 {
			t.Errorf("cold starts = %d, want 8", st.ColdStarts)
		}
	})
	// All 8 ran in parallel: elapsed ≈ coldstart + 1s, not 8s.
	if e := end.Sub(simclock.Epoch); e > 2*time.Second {
		t.Fatalf("elapsed %v — invocations did not run in parallel", e)
	}
}

func TestConcurrencyThrottle(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("f", "t", worker(time.Second), Config{MaxConcurrency: 2, KeepAlive: time.Hour, MaxRetries: -1}))
	v.Run(func() {
		var throttled int64
		done := simclock.NewGroup(v)
		for i := 0; i < 3; i++ {
			done.Add(1)
			p.InvokeAsyncFor("t", "f", nil, func(_ Result, err error) {
				if errors.Is(err, ErrThrottled) {
					atomic.AddInt64(&throttled, 1)
				}
				done.Done()
			})
		}
		done.Wait()
		if throttled != 1 {
			t.Errorf("throttled = %d, want 1", throttled)
		}
	})
}

func TestExecutionTimeLimit(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("slow", "t", worker(10*time.Second), Config{Timeout: time.Second, MaxRetries: -1}))
	v.Run(func() {
		start := v.Now()
		_, err := p.InvokeFor("t", "slow", nil)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		// The handler must have been cut at the 1s budget, not run 10s.
		if e := v.Now().Sub(start); e > 2*time.Second {
			t.Errorf("timeout did not bound execution: %v", e)
		}
		st, _ := p.StatsFor("t", "slow")
		if st.Timeouts != 1 {
			t.Errorf("timeouts = %d", st.Timeouts)
		}
	})
}

func TestBillingFineGrained(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	m := billing.NewMeter()
	p := New(v, m)
	// 250 ms of work at 1024 MB bills 300 ms → 0.3 GB-s.
	must(t, p.Register("f", "acme", worker(250*time.Millisecond), Config{MemoryMB: 1024}))
	v.Run(func() {
		_, err := p.InvokeFor("acme", "f", nil)
		must(t, err)
	})
	got := m.Units("acme", billing.ResInvocationGBs)
	if got < 0.2999 || got > 0.3001 {
		t.Fatalf("GB-seconds = %v, want 0.3", got)
	}
	if m.Units("acme", billing.ResInvocationReqs) != 1 {
		t.Fatal("request not metered")
	}
}

func TestAsyncRetrySucceedsEventually(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	var calls int64
	flaky := func(ctx *Ctx, payload []byte) ([]byte, error) {
		if atomic.AddInt64(&calls, 1) < 3 {
			return nil, errors.New("transient")
		}
		return []byte("ok"), nil
	}
	must(t, p.Register("flaky", "t", flaky, Config{MaxRetries: 2}))
	v.Run(func() {
		done := simclock.NewEvent(v)
		var attempt int
		var err error
		p.InvokeAsyncFor("t", "flaky", nil, func(_ Result, e error) {
			attempt, err = int(atomic.LoadInt64(&calls)), e
			done.Set()
		})
		done.Wait()
		if err != nil {
			t.Errorf("async retry failed: %v", err)
		}
		if attempt != 3 {
			t.Errorf("attempts = %d, want 3", attempt)
		}
	})
}

func TestAttemptNumberVisibleToHandler(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	var lastAttempt int64
	h := func(ctx *Ctx, payload []byte) ([]byte, error) {
		atomic.StoreInt64(&lastAttempt, int64(ctx.Attempt))
		if ctx.Attempt < 2 {
			return nil, errors.New("fail once")
		}
		return nil, nil
	}
	must(t, p.Register("f", "t", h, Config{MaxRetries: 2}))
	v.Run(func() {
		done := simclock.NewEvent(v)
		p.InvokeAsyncFor("t", "f", nil, func(Result, error) { done.Set() })
		done.Wait()
	})
	if lastAttempt != 2 {
		t.Fatalf("final attempt = %d, want 2", lastAttempt)
	}
}

func TestPayloadLimit(t *testing.T) {
	p := New(simclock.Real{}, nil)
	must(t, p.Register("f", "t", echo, Config{MaxPayload: 10}))
	if _, err := p.InvokeFor("t", "f", make([]byte, 11)); !errors.Is(err, ErrPayloadSize) {
		t.Fatalf("err = %v", err)
	}
}

func TestTimelineRecordsScaling(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("f", "t", worker(time.Second), Config{KeepAlive: time.Minute}))
	v.Run(func() {
		rep := Drive(p, "t", "f", nil, make([]time.Duration, 4))
		rep.Wait()
		v.Sleep(2 * time.Minute) // keep-alive lapses → the timer reaps, unread
	})
	st, _ := p.StatsFor("t", "f")
	peak := 0
	for _, pt := range st.Timeline {
		if pt.Instances > peak {
			peak = pt.Instances
		}
	}
	if peak != 4 {
		t.Fatalf("peak instances = %d, want 4", peak)
	}
	last := st.Timeline[len(st.Timeline)-1]
	if last.Instances != 0 {
		t.Fatalf("final instances = %d, want 0", last.Instances)
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{5, 1, 4, 2, 3}
	if got := Percentile(ds, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(ds, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(ds, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}

func TestHandlerErrorCountsAsFailure(t *testing.T) {
	p := New(simclock.Real{}, nil)
	boom := errors.New("boom")
	must(t, p.Register("f", "t", func(*Ctx, []byte) ([]byte, error) { return nil, boom }, Config{}))
	if _, err := p.InvokeFor("t", "f", nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	st, _ := p.StatsFor("t", "f")
	if st.Failures != 1 {
		t.Fatalf("failures = %d", st.Failures)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
