package orchestrate

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// testEnv wires a virtual-clock platform with a few basic functions.
func testEnv(t *testing.T) (*simclock.Virtual, *faas.Platform, *billing.Meter, *Engine) {
	t.Helper()
	v := simclock.NewVirtual()
	t.Cleanup(v.Close)
	m := billing.NewMeter()
	p := faas.New(v, m)
	reg := func(name string, h faas.Handler) {
		if err := p.Register(name, "acme", h, faas.Config{ColdStart: time.Millisecond, MaxRetries: -1}); err != nil {
			t.Fatal(err)
		}
	}
	reg("upper", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		ctx.Work(10 * time.Millisecond)
		return bytes.ToUpper(in), nil
	})
	reg("exclaim", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		ctx.Work(10 * time.Millisecond)
		return append(in, '!'), nil
	})
	reg("len", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		return json.Marshal(len(in))
	})
	return v, p, m, NewEngine(p)
}

func TestChainPipesOutput(t *testing.T) {
	v, _, _, e := testEnv(t)
	var out []byte
	var err error
	v.Run(func() {
		out, err = e.Execute("acme", Chain(Task("upper"), Task("exclaim")), []byte("hi"), obs.TraceCtx{})
	})
	if err != nil || string(out) != "HI!" {
		t.Fatalf("out = %q err = %v", out, err)
	}
}

func TestParallelFanOut(t *testing.T) {
	v, _, _, e := testEnv(t)
	var out []byte
	var err error
	v.Run(func() {
		out, err = e.Execute("acme", Parallel(Task("upper"), Task("exclaim")), []byte("go"), obs.TraceCtx{})
	})
	if err != nil {
		t.Fatal(err)
	}
	var arr []string
	if err := json.Unmarshal(out, &arr); err != nil {
		t.Fatalf("output %q not a JSON array: %v", out, err)
	}
	if arr[0] != "GO" || arr[1] != "go!" {
		t.Fatalf("arr = %v", arr)
	}
}

func TestParallelRunsConcurrently(t *testing.T) {
	v, p, _, e := testEnv(t)
	if err := p.Register("slow", "acme", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		ctx.Work(time.Second)
		return in, nil
	}, faas.Config{ColdStart: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	end := v.Run(func() {
		if _, err := e.Execute("acme", Parallel(Task("slow"), Task("slow"), Task("slow")), nil, obs.TraceCtx{}); err != nil {
			t.Error(err)
		}
	})
	if el := end.Sub(simclock.Epoch); el > 1500*time.Millisecond {
		t.Fatalf("parallel branches serialized: %v", el)
	}
}

func TestTaskRetryWithBackoff(t *testing.T) {
	v, p, _, e := testEnv(t)
	var calls int64
	if err := p.Register("flaky", "acme", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		if atomic.AddInt64(&calls, 1) < 3 {
			return nil, errors.New("transient")
		}
		return []byte("ok"), nil
	}, faas.Config{ColdStart: time.Millisecond, MaxRetries: -1}); err != nil {
		t.Fatal(err)
	}
	start := simclock.Epoch
	end := v.Run(func() {
		out, err := e.Execute("acme", TaskRetry("flaky", faas.RetryPolicy{MaxAttempts: 4, Base: time.Second, Jitter: -1}), nil, obs.TraceCtx{})
		if err != nil || string(out) != "ok" {
			t.Errorf("out = %q err = %v", out, err)
		}
	})
	if calls != 3 {
		t.Fatalf("calls = %d", calls)
	}
	// Two retries: backoff 1s + 2s = 3s minimum elapsed.
	if el := end.Sub(start); el < 3*time.Second {
		t.Fatalf("elapsed = %v, want ≥3s of backoff", el)
	}
}

func TestUnknownTarget(t *testing.T) {
	v, _, _, e := testEnv(t)
	v.Run(func() {
		if _, err := e.Execute("acme", Task("ghost"), nil, obs.TraceCtx{}); !errors.Is(err, ErrUnknownTarget) {
			t.Errorf("err = %v", err)
		}
	})
}

// TestCompositionIsAFunction checks Lopez property 2: a registered
// composition is invocable via Task, nested arbitrarily.
func TestCompositionIsAFunction(t *testing.T) {
	v, _, _, e := testEnv(t)
	if err := e.RegisterComposition("shout", Chain(Task("upper"), Task("exclaim"))); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterComposition("shout", Task("upper")); err == nil {
		t.Fatal("duplicate composition allowed")
	}
	// Nest the composition inside another composition.
	outer := Chain(Task("shout"), Task("exclaim"))
	v.Run(func() {
		out, err := e.Execute("acme", outer, []byte("hey"), obs.TraceCtx{})
		if err != nil || string(out) != "HEY!!" {
			t.Errorf("out = %q err = %v", out, err)
		}
	})
}

// TestCompositionRunsOnce: only a function step retries. A composition
// target with a policy of more than one attempt is refused before it runs.
func TestCompositionRunsOnce(t *testing.T) {
	v, _, m, e := testEnv(t)
	if err := e.RegisterComposition("shout", Chain(Task("upper"), Task("exclaim"))); err != nil {
		t.Fatal(err)
	}
	v.Run(func() {
		if _, err := e.Execute("acme", TaskRetry("shout", faas.RetryPolicy{MaxAttempts: 2}), []byte("x"), obs.TraceCtx{}); !errors.Is(err, ErrBadInput) {
			t.Errorf("err = %v, want ErrBadInput", err)
		}
		if out, err := e.Execute("acme", TaskRetry("shout", faas.RetryPolicy{MaxAttempts: 1}), []byte("x"), obs.TraceCtx{}); err != nil || string(out) != "X!" {
			t.Errorf("out = %q err = %v", out, err)
		}
	})
	if got := m.Units("acme", billing.ResInvocationReqs); got != 2 {
		t.Fatalf("billed %v requests, want the 2 of the one run", got)
	}
}

// TestNoDoubleBilling checks Lopez property 3: executing a composition bills
// exactly the basic function invocations, nothing for the composition.
func TestNoDoubleBilling(t *testing.T) {
	v, p, m, e := testEnv(t)
	if err := e.RegisterComposition("pipeline", Chain(Task("upper"), Task("exclaim"), Task("len"))); err != nil {
		t.Fatal(err)
	}
	// Baseline: invoke the three functions directly.
	v.Run(func() {
		for _, f := range []string{"upper", "exclaim", "len"} {
			if _, err := p.InvokeFor("acme", f, []byte("hi")); err != nil {
				t.Fatal(err)
			}
		}
	})
	directReqs := m.Units("acme", billing.ResInvocationReqs)
	directGBs := m.Units("acme", billing.ResInvocationGBs)
	m.Reset()

	v.Run(func() {
		if _, err := e.Execute("acme", Task("pipeline"), []byte("hi"), obs.TraceCtx{}); err != nil {
			t.Fatal(err)
		}
	})
	if got := m.Units("acme", billing.ResInvocationReqs); got != directReqs {
		t.Fatalf("composition billed %v requests, direct %v — double billing", got, directReqs)
	}
	if got := m.Units("acme", billing.ResInvocationGBs); got != directGBs {
		t.Fatalf("composition billed %v GB-s, direct %v", got, directGBs)
	}
}

// TestTaskRetryStopRule: a TaskRetry step is one faas.InvokeWithRetry, so
// it stops where the platform's retry loop stops. Payload too large, a
// tenant shed and a function's concurrency throttle each run once; a
// handler error is retried.
func TestTaskRetryStopRule(t *testing.T) {
	var calls int64
	flaky := func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		if atomic.AddInt64(&calls, 1) < 3 {
			return nil, errors.New("transient")
		}
		return []byte("ok"), nil
	}
	cases := []struct {
		name    string
		cfg     faas.Config
		handler faas.Handler
		payload []byte
		// first runs on the clock before the execution: its effect (a taken
		// token, a busy instance) is what the step meets.
		first func(v *simclock.Virtual, p *faas.Platform)
		want  error // nil: the third attempt succeeds
		runs  int
	}{
		{name: "payload too large", handler: flaky,
			payload: make([]byte, faas.MaxPayload+1), want: faas.ErrPayloadSize, runs: 1},
		{name: "tenant shed", handler: flaky, want: faas.ErrTenantThrottled, runs: 1,
			first: func(_ *simclock.Virtual, p *faas.Platform) {
				p.SetAdmission(faas.AdmissionConfig{RatePerSecond: 1, Burst: 1, MaxWait: time.Millisecond})
				p.InvokeFor("acme", "f", nil)
			}},
		{name: "function throttled", cfg: faas.Config{MaxConcurrency: 1}, want: faas.ErrThrottled, runs: 1,
			handler: func(ctx *faas.Ctx, in []byte) ([]byte, error) {
				ctx.Work(time.Second)
				return in, nil
			},
			first: func(v *simclock.Virtual, p *faas.Platform) {
				v.Go(func() { p.InvokeFor("acme", "f", nil) })
				v.Sleep(time.Millisecond)
			}},
		{name: "handler error", handler: flaky, runs: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			atomic.StoreInt64(&calls, 0)
			v, p, reg, e := tracedEnv(t)
			tc.cfg.MaxRetries = -1
			if err := p.Register("f", "acme", tc.handler, tc.cfg); err != nil {
				t.Fatal(err)
			}
			var err error
			v.Run(func() {
				if tc.first != nil {
					tc.first(v, p)
				}
				_, err = e.Execute("acme", TaskRetry("f", faas.RetryPolicy{MaxAttempts: 3, Base: time.Second}), tc.payload, obs.TraceCtx{})
			})
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			exec := spansByName(reg)["orchestrate.execution"]
			if len(exec) != 1 {
				t.Fatalf("%d executions traced, want 1", len(exec))
			}
			runs := 0
			for _, sd := range spansByName(reg)["faas.invoke"] {
				if sd.TraceID == exec[0].TraceID {
					runs++
				}
			}
			if runs != tc.runs {
				t.Fatalf("the step ran %d times, want %d", runs, tc.runs)
			}
		})
	}
}

// TestExecutionSpans: the obs spans are an execution's one record. A chain
// reads as orchestrate.execution → task:upper, wait (1 s), task:exclaim in
// order, and a TaskRetry step holds the platform's retry span, whose
// children are each attempt and each backoff.
func TestExecutionSpans(t *testing.T) {
	v, p, reg, e := tracedEnv(t)
	var calls int64
	if err := p.Register("flaky", "acme", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		if atomic.AddInt64(&calls, 1) < 3 {
			return nil, errors.New("transient")
		}
		return []byte("ok"), nil
	}, faas.Config{ColdStart: time.Millisecond, MaxRetries: -1}); err != nil {
		t.Fatal(err)
	}
	v.Run(func() {
		if _, err := e.Execute("acme", Chain(Task("upper"), Parallel(Task("exclaim"), Task("len"))), []byte("x"), obs.TraceCtx{}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Execute("acme", TaskRetry("flaky", faas.RetryPolicy{MaxAttempts: 3, Base: time.Second, Jitter: -1}), nil, obs.TraceCtx{}); err != nil {
			t.Fatal(err)
		}
	})
	spans := reg.Tracer().Spans()
	children := func(parent obs.SpanData) (names []string, out []obs.SpanData) {
		for _, sd := range spans {
			if sd.TraceID == parent.TraceID && sd.ParentID == parent.SpanID {
				out = append(out, sd)
			}
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
		for _, sd := range out {
			names = append(names, sd.Name)
		}
		return names, out
	}
	execs := spansByName(reg)["orchestrate.execution"]
	if len(execs) != 2 {
		t.Fatalf("%d executions traced, want 2", len(execs))
	}
	names, steps := children(execs[0])
	if want := []string{"task:upper", "parallel"}; !slices.Equal(names, want) {
		t.Fatalf("chain steps = %v, want %v", names, want)
	}
	names, _ = children(steps[1])
	sort.Strings(names)
	if want := []string{"task:exclaim", "task:len"}; !slices.Equal(names, want) {
		t.Fatalf("parallel branches = %v, want %v", names, want)
	}

	names, steps = children(execs[1])
	if !slices.Equal(names, []string{"task:flaky"}) {
		t.Fatalf("retry execution steps = %v, want [task:flaky]", names)
	}
	names, loop := children(steps[0])
	if !slices.Equal(names, []string{"faas.invoke.retry"}) {
		t.Fatalf("task:flaky children = %v, want the platform's retry span", names)
	}
	names, waits := children(loop[0])
	want := []string{"faas.invoke", "faas.retry.backoff", "faas.invoke", "faas.retry.backoff", "faas.invoke"}
	if !slices.Equal(names, want) {
		t.Fatalf("retry span children = %v, want %v", names, want)
	}
	if waits[1].Duration != time.Second || waits[3].Duration != 2*time.Second {
		t.Fatalf("backoffs = %v, %v; want 1s then 2s", waits[1].Duration, waits[3].Duration)
	}
}

// tracedEnv is testEnv with one obs registry on the platform and the engine.
func tracedEnv(t *testing.T) (*simclock.Virtual, *faas.Platform, *obs.Registry, *Engine) {
	t.Helper()
	v, p, _, e := testEnv(t)
	reg := obs.New(v)
	p.SetObs(reg)
	e.SetObs(reg)
	return v, p, reg, e
}

// spansByName groups reg's retained spans by name.
func spansByName(reg *obs.Registry) map[string][]obs.SpanData {
	by := map[string][]obs.SpanData{}
	for _, sd := range reg.Tracer().Spans() {
		by[sd.Name] = append(by[sd.Name], sd)
	}
	return by
}
