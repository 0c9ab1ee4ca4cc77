package repro

// Allocation-regression gate for the two hot paths the PR6 rework made
// allocation-free (DESIGN.md §10). These run in CI's alloc-gate job, so a
// change that quietly reintroduces a per-request or per-publish heap
// allocation fails the build instead of showing up three PRs later as a
// bench regression.
//
// Both tests warm up well past the lazy one-time allocations (pool seeding,
// duration/billing rings, tracer retention cap) before measuring: the gate
// is about steady state, not first-touch cost.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/obs"
)

// TestWarmInvokeZeroAllocs pins the warm synchronous invoke path — through
// the public tenant handle — at zero heap allocations per request.
func TestWarmInvokeZeroAllocs(t *testing.T) {
	p := core.New(core.Options{})
	bench := p.Tenant("bench")
	if err := bench.Register("noop", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		return in, nil
	}, faas.Config{WarmStart: 1, ColdStart: 1, KeepAlive: time.Hour}); err != nil {
		t.Fatal(err)
	}
	// Past the tracer retention cap and every lazily-built ring.
	for i := 0; i < 20000; i++ {
		if _, err := bench.Invoke("noop", nil); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(2000, func() {
		if _, err := bench.Invoke("noop", nil); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("warm invoke allocates %.3f allocs/op, want 0", got)
	}
}

// TestPublishSyncAtMostOneAlloc pins the synchronous publish path at ≤1
// alloc per message. The budget covers the amortized arena-block refill
// (one 64KB block per ~200 entries) and topic-cache growth; a per-publish
// message copy or a rebuilt map would blow well past it.
func TestPublishSyncAtMostOneAlloc(t *testing.T) {
	p := core.New(core.Options{PulsarBatchMax: 1, PulsarFlushInterval: time.Hour})
	if err := p.Pulsar.CreateTopic("alloc-gate", 0); err != nil {
		t.Fatal(err)
	}
	prod, err := p.Pulsar.CreateProducer("alloc-gate")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256)
	for i := 0; i < 20000; i++ {
		if _, err := prod.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(2000, func() {
		if _, err := prod.Send(payload); err != nil {
			t.Fatal(err)
		}
	})
	if got > 1 {
		t.Fatalf("sync publish allocates %.3f allocs/op, want <= 1", got)
	}
}

// TestWarmInvokeTracedZeroAllocs pins the warm invoke path at zero allocs
// with tracing *actively staging* spans. The tail sampler is configured to
// discard every normal trace (KeepFraction 0, nothing slow enough to force
// a keep), so the retention buffer never fills and the full-tracer
// short-circuit the plain gate eventually hits can never kick in: every
// measured invoke runs the real span staging, finalization and sampling
// machinery. Per-trace buffers must come from the tracer's free list and
// span contexts from atomics for this to stay at zero.
func TestWarmInvokeTracedZeroAllocs(t *testing.T) {
	p := core.New(core.Options{})
	p.Obs.Tracer().SetSampler(obs.SamplerConfig{
		Seed:          7,
		KeepFraction:  0,
		SlowThreshold: time.Hour,
	})
	bench := p.Tenant("bench")
	if err := bench.Register("noop", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		return in, nil
	}, faas.Config{WarmStart: 1, ColdStart: 1, KeepAlive: time.Hour}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if _, err := bench.Invoke("noop", nil); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(2000, func() {
		if _, err := bench.Invoke("noop", nil); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("traced warm invoke allocates %.3f allocs/op, want 0", got)
	}
	if st := p.Obs.Tracer().Stats(); st.DiscardedTraces == 0 {
		t.Fatalf("sampler never discarded a trace (stats %+v); the gate is not exercising staging", st)
	}
}
