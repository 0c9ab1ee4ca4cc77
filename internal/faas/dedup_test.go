package faas

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// TestRetryBreakerTripBillingConsistent pins the contract between the retry
// loop, the breaker and the meter: with a threshold of 3 and an always-failing
// handler, InvokeWithRetry's first three attempts execute (and bill), the
// third trips the breaker, and the fourth fast-fails with ErrCircuitOpen —
// ending the loop immediately. The Result's Attempt count and the billed
// faas:requests must tell the same story: 4 attempts issued, 3 executions
// billed.
func TestRetryBreakerTripBillingConsistent(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	meter := billing.NewMeter()
	p := New(v, meter)
	var healthy int64
	must(t, p.Register("f", "acme", failing(&healthy), Config{
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour,
	}))
	v.Run(func() {
		res, err := p.InvokeWithRetry("acme", "f", "", nil, obs.TraceCtx{}, RetryPolicy{
			MaxAttempts: 5,
			Base:        time.Millisecond,
			Jitter:      -1,
		})
		if !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("err = %v, want ErrCircuitOpen", err)
		}
		if res.Attempt != 4 {
			t.Errorf("res.Attempt = %d, want 4 (three executions + the fast-fail)", res.Attempt)
		}
		st, _ := p.StatsFor("acme", "f")
		if st.Invocations != 3 {
			t.Errorf("executions = %d, want 3", st.Invocations)
		}
		if got := meter.Units("acme", billing.ResInvocationReqs); got != 3 {
			t.Errorf("billed faas:requests = %v, want 3 (the fast-failed attempt must not bill)", got)
		}
	})
}

// TestDedupWindowServesCachedResult: on a function with a DedupWindow, a
// second invoke presenting the same idempotency key is served from the cache
// — no execution, no billing, Result.Deduped set — while a fresh key and a
// key past the window re-execute.
func TestDedupWindowServesCachedResult(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	meter := billing.NewMeter()
	p := New(v, meter)
	var execs int64
	must(t, p.Register("f", "acme", func(ctx *Ctx, payload []byte) ([]byte, error) {
		atomic.AddInt64(&execs, 1)
		return []byte("ok"), nil
	}, Config{DedupWindow: time.Minute}))
	v.Run(func() {
		r1, err := p.InvokeForTraceIdem("acme", "f", nil, obs.TraceCtx{}, "k1")
		must(t, err)
		if r1.Deduped {
			t.Error("first keyed invoke must execute, not dedup")
		}
		r2, err := p.InvokeForTraceIdem("acme", "f", nil, obs.TraceCtx{}, "k1")
		must(t, err)
		if !r2.Deduped {
			t.Error("duplicate key inside the window must be served from cache")
		}
		if string(r2.Output) != "ok" {
			t.Errorf("cached output = %q, want %q", r2.Output, "ok")
		}
		if r3, err := p.InvokeForTraceIdem("acme", "f", nil, obs.TraceCtx{}, "k2"); err != nil || r3.Deduped {
			t.Errorf("fresh key: err=%v deduped=%v, want execution", err, r3.Deduped)
		}
		if got := atomic.LoadInt64(&execs); got != 2 {
			t.Errorf("executions = %d, want 2", got)
		}
		if got := meter.Units("acme", billing.ResInvocationReqs); got != 2 {
			t.Errorf("billed faas:requests = %v, want 2 (deduped invoke must not bill)", got)
		}
		// Past the window the key executes again.
		v.Sleep(2 * time.Minute)
		r4, err := p.InvokeForTraceIdem("acme", "f", nil, obs.TraceCtx{}, "k1")
		must(t, err)
		if r4.Deduped {
			t.Error("key past the window must re-execute")
		}
		if got := atomic.LoadInt64(&execs); got != 3 {
			t.Errorf("executions after expiry = %d, want 3", got)
		}
	})
}

// TestDedupNeverCachesFailures: a failed keyed attempt must not poison the
// window — the retry that could fix it has to reach the handler.
func TestDedupNeverCachesFailures(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	var healthy int64
	must(t, p.Register("f", "acme", failing(&healthy), Config{DedupWindow: time.Minute}))
	v.Run(func() {
		if _, err := p.InvokeForTraceIdem("acme", "f", nil, obs.TraceCtx{}, "k"); err == nil {
			t.Fatal("want handler failure")
		}
		atomic.StoreInt64(&healthy, 1)
		res, err := p.InvokeForTraceIdem("acme", "f", nil, obs.TraceCtx{}, "k")
		must(t, err)
		if res.Deduped {
			t.Error("retry after failure was deduped; failures must not be cached")
		}
		if string(res.Output) != "ok" {
			t.Errorf("output = %q, want %q", res.Output, "ok")
		}
	})
}

// TestRetryDecideLostReply: a Decide predicate that re-invokes after success
// (a client that lost the reply) double-executes a plain function but not a
// dedup-windowed one — the second attempt of the keyed retry is served from
// the cache.
func TestRetryDecideLostReply(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	var plain, keyed int64
	count := func(n *int64) Handler {
		return func(ctx *Ctx, payload []byte) ([]byte, error) {
			atomic.AddInt64(n, 1)
			return []byte("ok"), nil
		}
	}
	must(t, p.Register("plain", "acme", count(&plain), Config{}))
	must(t, p.Register("keyed", "acme", count(&keyed), Config{DedupWindow: time.Minute}))
	lostReply := RetryPolicy{
		MaxAttempts: 2,
		Base:        time.Millisecond,
		Jitter:      -1,
		Decide:      func(attempt int, res Result, err error) bool { return attempt < 2 },
	}
	v.Run(func() {
		res, err := p.InvokeWithRetry("acme", "plain", "", nil, obs.TraceCtx{}, lostReply)
		must(t, err)
		if res.Attempt != 2 || atomic.LoadInt64(&plain) != 2 {
			t.Errorf("plain: attempt=%d execs=%d, want 2/2 (lost reply re-executes)", res.Attempt, plain)
		}
		res, err = p.InvokeWithRetry("acme", "keyed", "req-1", nil, obs.TraceCtx{}, lostReply)
		must(t, err)
		if res.Attempt != 2 || !res.Deduped {
			t.Errorf("keyed: attempt=%d deduped=%v, want attempt 2 served from cache", res.Attempt, res.Deduped)
		}
		if got := atomic.LoadInt64(&keyed); got != 1 {
			t.Errorf("keyed executions = %d, want 1", got)
		}
	})
}

// TestDedupCacheHoldsTheLiveWindowExactly drives the dedup cache with
// synthetic timestamps: however many keys are live, none is evicted before its
// window lapses, and a store drops exactly the entries that have lapsed. An
// entry is told apart by its output, which is all of a Result the window keeps
// besides Cold, Latency and Billed.
func TestDedupCacheHoldsTheLiveWindowExactly(t *testing.T) {
	const n = 3 * 4096
	fn := &function{cfg: Config{DedupWindow: time.Minute}}
	t0 := time.Unix(0, 0)
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	out := func(i int) []byte { return []byte(fmt.Sprintf("out%d", i)) }
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for i := 0; i < n; i++ {
		fn.dedupStore(key(i), Result{Output: out(i)}, at(i))
	}
	if len(fn.idem.index) != n {
		t.Fatalf("cached %d of %d live keys", len(fn.idem.index), n)
	}
	for i := 0; i < n; i++ {
		if res, ok := fn.dedupLookup(key(i), at(n)); !ok || !bytes.Equal(res.Output, out(i)) {
			t.Fatalf("live key %d: hit=%v output=%q", i, ok, res.Output)
		}
	}

	// Key 0 succeeds again at 30s: its entry now outlives its first record.
	fn.dedupStore(key(0), Result{Output: out(-1)}, at(30_000))
	// A store at 65s drops the keys stored before 5s — and only those.
	now := at(65_000)
	fn.dedupStore("late", Result{}, now)
	if want := n - 5000 + 2; len(fn.idem.index) != want || fn.idem.recs.Len() != want {
		t.Fatalf("after the window: %d indexed, %d records, want %d each", len(fn.idem.index), fn.idem.recs.Len(), want)
	}
	if res, ok := fn.dedupLookup(key(0), now); !ok || !bytes.Equal(res.Output, out(-1)) {
		t.Errorf("re-stored key evicted with its older record: hit=%v output=%q", ok, res.Output)
	}
	if _, ok := fn.dedupLookup(key(4999), now); ok {
		t.Error("key past its window still served")
	}
	if _, ok := fn.dedupLookup(key(5000), now); !ok {
		t.Error("key at the edge of its window evicted early")
	}
}
