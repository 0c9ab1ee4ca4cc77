package orchestrate

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/faas"
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
		out, err = e.Execute("acme", Chain(Task("upper"), Task("exclaim")), []byte("hi"))
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
		out, err = e.Execute("acme", Parallel(Task("upper"), Task("exclaim")), []byte("go"))
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
		if _, err := e.Execute("acme", Parallel(Task("slow"), Task("slow"), Task("slow")), nil); err != nil {
			t.Error(err)
		}
	})
	if el := end.Sub(simclock.Epoch); el > 1500*time.Millisecond {
		t.Fatalf("parallel branches serialized: %v", el)
	}
}

func TestChoiceRouting(t *testing.T) {
	v, _, _, e := testEnv(t)
	sm := Choice([]ChoiceBranch{
		{When: func(in []byte) bool { return strings.HasPrefix(string(in), "img:") }, Then: Task("upper")},
	}, Task("exclaim"))
	v.Run(func() {
		out, err := e.Execute("acme", sm, []byte("img:cat"))
		if err != nil || string(out) != "IMG:CAT" {
			t.Errorf("branch out = %q err=%v", out, err)
		}
		out, err = e.Execute("acme", sm, []byte("other"))
		if err != nil || string(out) != "other!" {
			t.Errorf("default out = %q err=%v", out, err)
		}
	})
}

func TestChoiceNoMatchNoDefault(t *testing.T) {
	v, _, _, e := testEnv(t)
	sm := Choice([]ChoiceBranch{
		{When: func([]byte) bool { return false }, Then: Task("upper")},
	}, nil)
	v.Run(func() {
		if _, err := e.Execute("acme", sm, []byte("x")); !errors.Is(err, ErrNoChoice) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestMapAppliesPerElement(t *testing.T) {
	v, _, _, e := testEnv(t)
	input, _ := json.Marshal([]string{"a", "b", "c"})
	var out []byte
	var err error
	v.Run(func() {
		out, err = e.Execute("acme", Map(Task("upper"), 2), input)
	})
	if err != nil {
		t.Fatal(err)
	}
	var arr []string
	if err := json.Unmarshal(out, &arr); err != nil {
		t.Fatalf("bad output %q: %v", out, err)
	}
	// upper receives the raw JSON element (`"a"`), uppercases it to `"A"`,
	// which is itself valid JSON and embeds directly in the output array.
	if len(arr) != 3 || arr[0] != "A" || arr[2] != "C" {
		t.Fatalf("arr = %q", arr)
	}
}

func TestMapRejectsNonArray(t *testing.T) {
	v, _, _, e := testEnv(t)
	v.Run(func() {
		if _, err := e.Execute("acme", Map(Task("upper"), 0), []byte("notjson")); !errors.Is(err, ErrBadInput) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestWaitAdvancesClock(t *testing.T) {
	v, _, _, e := testEnv(t)
	end := v.Run(func() {
		out, err := e.Execute("acme", Chain(Wait(time.Minute), Pass(nil)), []byte("keep"))
		if err != nil || string(out) != "keep" {
			t.Errorf("out = %q err = %v", out, err)
		}
	})
	if el := end.Sub(simclock.Epoch); el != time.Minute {
		t.Fatalf("elapsed = %v", el)
	}
}

func TestPassTransform(t *testing.T) {
	v, _, _, e := testEnv(t)
	double := Pass(func(in []byte) ([]byte, error) { return append(in, in...), nil })
	v.Run(func() {
		out, err := e.Execute("acme", double, []byte("ab"))
		if err != nil || string(out) != "abab" {
			t.Errorf("out = %q err = %v", out, err)
		}
	})
}

func TestFailState(t *testing.T) {
	v, _, _, e := testEnv(t)
	v.Run(func() {
		if _, err := e.Execute("acme", Fail("bad input"), nil); !errors.Is(err, ErrFailed) {
			t.Errorf("err = %v", err)
		}
	})
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
		out, err := e.Execute("acme", TaskRetry("flaky", RetryPolicy{MaxAttempts: 4, Interval: time.Second, Backoff: 2}), nil)
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

func TestTaskCatchFallback(t *testing.T) {
	v, p, _, e := testEnv(t)
	if err := p.Register("broken", "acme", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		return nil, errors.New("always fails")
	}, faas.Config{ColdStart: time.Millisecond, MaxRetries: -1}); err != nil {
		t.Fatal(err)
	}
	sm := TaskCatch("broken", RetryPolicy{MaxAttempts: 2}, Task("exclaim"))
	v.Run(func() {
		out, err := e.Execute("acme", sm, []byte("in"))
		if err != nil || string(out) != "in!" {
			t.Errorf("catch out = %q err = %v", out, err)
		}
	})
}

func TestUnknownTarget(t *testing.T) {
	v, _, _, e := testEnv(t)
	v.Run(func() {
		if _, err := e.Execute("acme", Task("ghost"), nil); !errors.Is(err, ErrUnknownTarget) {
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
	if err := e.RegisterComposition("shout", Pass(nil)); err == nil {
		t.Fatal("duplicate composition allowed")
	}
	// Nest the composition inside another composition.
	outer := Chain(Task("shout"), Task("exclaim"))
	v.Run(func() {
		out, err := e.Execute("acme", outer, []byte("hey"))
		if err != nil || string(out) != "HEY!!" {
			t.Errorf("out = %q err = %v", out, err)
		}
	})
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
		if _, err := e.Execute("acme", Task("pipeline"), []byte("hi")); err != nil {
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

func TestExecuteTraced(t *testing.T) {
	v, _, _, e := testEnv(t)
	v.Run(func() {
		_, tr, err := e.ExecuteTraced("acme", Chain(Task("upper"), Wait(time.Second), Task("exclaim")), []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		for _, ev := range tr.Events {
			kinds[ev.Kind]++
		}
		if kinds["task"] != 2 || kinds["wait"] != 1 {
			t.Errorf("trace kinds = %v", kinds)
		}
	})
}
