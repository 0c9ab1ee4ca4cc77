package faas

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simclock"
)

// failing returns a handler that fails while healthy is 0.
func failing(healthy *int64) Handler {
	return func(ctx *Ctx, payload []byte) ([]byte, error) {
		if atomic.LoadInt64(healthy) == 0 {
			return nil, errors.New("boom")
		}
		return []byte("ok"), nil
	}
}

// TestInvokeWithRetryBacksOff: the retry policy sleeps doubling backoffs and
// surfaces Attempt/RetryWait in the result.
func TestInvokeWithRetryBacksOff(t *testing.T) {
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
	must(t, p.Register("f", "t", flaky, Config{}))
	v.Run(func() {
		res, err := p.InvokeWithRetry("t", "f", "", nil, obs.TraceCtx{}, RetryPolicy{
			MaxAttempts: 5,
			Base:        100 * time.Millisecond,
			Jitter:      -1, // exact backoffs
		})
		if err != nil {
			t.Errorf("InvokeWithRetry: %v", err)
		}
		if res.Attempt != 3 {
			t.Errorf("Attempt = %d, want 3", res.Attempt)
		}
		if res.RetryWait != 300*time.Millisecond {
			t.Errorf("RetryWait = %v, want 300ms (100 + 200)", res.RetryWait)
		}
	})
}

// TestInvokeWithRetryStopsOnNonRetryable: errors a retry cannot fix return
// after a single attempt — including a function's concurrency throttle,
// which exists to shed load, not attract it — and the loop sleeps no backoff.
func TestInvokeWithRetryStopsOnNonRetryable(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("f", "t", func(ctx *Ctx, _ []byte) ([]byte, error) {
		ctx.Work(time.Hour)
		return nil, nil
	}, Config{MaxConcurrency: 1}))
	v.Run(func() {
		if _, err := p.InvokeWithRetry("t", "nope", "", nil, obs.TraceCtx{}, RetryPolicy{}); !errors.Is(err, ErrNoFunction) {
			t.Errorf("err = %v, want ErrNoFunction", err)
		}
		busy(p, v) // holds f's one instance for an hour
		start := v.Now()
		res, err := p.InvokeWithRetry("t", "f", "", nil, obs.TraceCtx{}, RetryPolicy{MaxAttempts: 5, Base: time.Second})
		if !errors.Is(err, ErrThrottled) {
			t.Errorf("err = %v, want ErrThrottled", err)
		}
		if res.Attempt != 1 {
			t.Errorf("Attempt = %d, want 1 (no retries against a throttle)", res.Attempt)
		}
		if waited := v.Now().Sub(start); waited != 0 {
			t.Errorf("retry loop slept %v against a throttle", waited)
		}
	})
}

// TestRetryJitterDeterministic: two identically seeded platforms produce
// identical jittered retry spacing — the property the chaos soak relies on.
func TestRetryJitterDeterministic(t *testing.T) {
	run := func() []time.Duration {
		v := simclock.NewVirtual()
		defer v.Close()
		p := New(v, nil)
		alwaysFail := func(ctx *Ctx, payload []byte) ([]byte, error) {
			return nil, errors.New("boom")
		}
		must(t, p.Register("f", "t", alwaysFail, Config{MaxRetries: -1}))
		var waits []time.Duration
		v.Run(func() {
			for i := 0; i < 4; i++ {
				res, _ := p.InvokeWithRetry("t", "f", "", nil, obs.TraceCtx{}, RetryPolicy{MaxAttempts: 3, Base: 50 * time.Millisecond})
				waits = append(waits, res.RetryWait)
			}
		})
		return waits
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] <= 0 {
			t.Fatalf("RetryWait[%d] = %v, want > 0", i, a[i])
		}
	}
}

// TestRetryJitterSeededOnFirstUse: the jitter rng is built by the first
// jitter, not by New, and a fresh platform's sequence is still the one seeded
// with 0x7a05.
func TestRetryJitterSeededOnFirstUse(t *testing.T) {
	p := New(simclock.NewVirtual(), nil)
	if p.rng != nil {
		t.Fatal("New built the jitter rng before any jitter")
	}
	oracle := rand.New(rand.NewSource(0x7a05))
	const d, frac = time.Second, 0.5
	for i := 0; i < 3; i++ {
		want := d - time.Duration(oracle.Float64()*frac*float64(d))
		if got := p.jittered(d, frac); got != want {
			t.Fatalf("jitter %d = %v, want %v", i, got, want)
		}
	}
}

// TestAsyncRetryJitterBounds: async retries back off 500ms·2^k with up to
// 20% equal jitter, and the callback's Result surfaces Attempt and
// RetryWait.
func TestAsyncRetryJitterBounds(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	var calls int64
	flaky := func(ctx *Ctx, payload []byte) ([]byte, error) {
		if atomic.AddInt64(&calls, 1) < 3 {
			return nil, errors.New("transient")
		}
		return nil, nil
	}
	must(t, p.Register("f", "t", flaky, Config{MaxRetries: 2}))
	var final Result
	v.Run(func() {
		done := simclock.NewEvent(v)
		p.InvokeAsyncFor("t", "f", nil, func(res Result, err error) {
			final = res
			if err != nil {
				t.Errorf("async retry failed: %v", err)
			}
			done.Set()
		})
		done.Wait()
	})
	if final.Attempt != 3 {
		t.Fatalf("Attempt = %d, want 3", final.Attempt)
	}
	// Waits: U(400,500]ms + U(800,1000]ms ⇒ total in (1200ms, 1500ms].
	if final.RetryWait <= 1200*time.Millisecond || final.RetryWait > 1500*time.Millisecond {
		t.Fatalf("RetryWait = %v, want in (1200ms, 1500ms]", final.RetryWait)
	}
}

// TestRetryStopRuleSharedByBothEntryPoints drives InvokeWithRetry and
// InvokeAsyncFor — three attempts allowed each — over every error ClassOf
// does not call RetryNow, plus a plain handler error: both entry points
// stop after a single attempt on the former and retry the latter, reporting
// Attempt and RetryWait.
func TestRetryStopRuleSharedByBothEntryPoints(t *testing.T) {
	entries := []struct {
		name string
		call func(p *Platform, v *simclock.Virtual, fn string, payload []byte) (Result, error)
	}{
		{"sync", func(p *Platform, _ *simclock.Virtual, fn string, payload []byte) (Result, error) {
			return p.InvokeWithRetry("t", fn, "", payload, obs.TraceCtx{}, RetryPolicy{MaxAttempts: 3})
		}},
		{"async", func(p *Platform, v *simclock.Virtual, fn string, payload []byte) (res Result, err error) {
			done := simclock.NewEvent(v)
			p.InvokeAsyncFor("t", fn, payload, func(r Result, e error) {
				res, err = r, e
				done.Set()
			})
			done.Wait()
			return res, err
		}},
	}
	var calls int64
	flaky := func(ctx *Ctx, payload []byte) ([]byte, error) {
		if atomic.AddInt64(&calls, 1) < 3 {
			return nil, errors.New("transient")
		}
		return []byte("ok"), nil
	}
	cases := []struct {
		name    string
		fn      string
		payload []byte
		setup   func(p *Platform) // runs on the clock, before the retrying call
		first   func(p *Platform, v *simclock.Virtual)
		want    error // nil: the third attempt succeeds
	}{
		{name: "tenant throttled", fn: "echo", want: ErrTenantThrottled, setup: func(p *Platform) {
			// One token, refilled once a second: the first invoke takes it,
			// and no backoff the loop could sleep brings it back in time.
			p.SetAdmission(AdmissionConfig{RatePerSecond: 1, Burst: 1, MaxWait: time.Millisecond})
			p.InvokeFor("t", "echo", nil)
		}},
		{name: "payload too large", fn: "echo", payload: make([]byte, MaxPayload+1), want: ErrPayloadSize},
		{name: "no function", fn: "nope", want: ErrNoFunction},
		{name: "handler error", fn: "flaky"},
		// busy holds f's one instance: a retry from inside the platform
		// would only add to the overload its cap sheds.
		{name: "function throttled", fn: "f", want: ErrThrottled, first: busy},
	}
	for _, tc := range cases {
		for _, entry := range entries {
			tc, entry := tc, entry
			t.Run(tc.name+"/"+entry.name, func(t *testing.T) {
				v := simclock.NewVirtual()
				defer v.Close()
				p := New(v, nil)
				atomic.StoreInt64(&calls, 0)
				must(t, p.Register("echo", "t", echo, Config{}))
				must(t, p.Register("flaky", "t", flaky, Config{}))
				must(t, p.Register("f", "t", func(ctx *Ctx, _ []byte) ([]byte, error) {
					ctx.Work(time.Second)
					return nil, nil
				}, Config{MaxConcurrency: 1}))
				v.Run(func() {
					if tc.setup != nil {
						tc.setup(p)
					}
					if tc.first != nil {
						tc.first(p, v)
					}
					res, err := entry.call(p, v, tc.fn, tc.payload)
					if tc.want == nil {
						if err != nil || res.Attempt != 3 || res.RetryWait <= 0 {
							t.Errorf("got Attempt %d, RetryWait %v, err %v; want success on attempt 3 after a backoff", res.Attempt, res.RetryWait, err)
						}
						return
					}
					if !errors.Is(err, tc.want) {
						t.Errorf("err = %v, want %v", err, tc.want)
					}
					if res.Attempt != 1 || res.RetryWait != 0 {
						t.Errorf("Attempt = %d, RetryWait = %v; want 1 attempt and no backoff", res.Attempt, res.RetryWait)
					}
				})
			})
		}
	}
}
