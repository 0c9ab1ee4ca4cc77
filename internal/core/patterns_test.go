package core

// §3.2 cites Hong et al.'s categorization of serverless design patterns:
// (1) periodic invocation, (2) event-driven, (3) data transformation,
// (4) data streaming, (5) state machine, (6) bundled pattern. Each test below
// exercises one pattern end to end on the assembled platform — the
// integration-level proof that the reproduction supports the full catalogue.

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/orchestrate"
	"repro/internal/simclock"
	"repro/internal/sketch"
)

// Pattern 1: periodic invocation — a function fired on a fixed schedule
// (compliance scans, report generation).
func TestPatternPeriodicInvocation(t *testing.T) {
	p, v := NewVirtual(Options{})
	defer v.Close()
	var runs int64
	v.Run(func() {
		must(t, p.Tenant("t").Register("scan", func(ctx *faas.Ctx, _ []byte) ([]byte, error) {
			atomic.AddInt64(&runs, 1)
			ctx.Work(50 * time.Millisecond)
			return nil, nil
		}, faas.Config{}))
		// Every 10 minutes for an hour.
		schedule := make([]time.Duration, 6)
		for i := range schedule {
			schedule[i] = time.Duration(i) * 10 * time.Minute
		}
		rep := faas.Drive(p.FaaS, "t", "scan", nil, schedule)
		rep.Wait()
	})
	if runs != 6 {
		t.Fatalf("periodic runs = %d, want 6", runs)
	}
}

// Pattern 2: event-driven — storage events trigger compute.
func TestPatternEventDriven(t *testing.T) {
	p, v := NewVirtual(Options{})
	defer v.Close()
	var processed int64
	v.Run(func() {
		must(t, p.Blob.CreateBucket("in", "t"))
		must(t, p.Tenant("t").Register("react", func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			atomic.AddInt64(&processed, 1)
			return nil, nil
		}, faas.Config{}))
		faas.BindBlob(p.FaaS, p.Blob, "in", "t", "react")
		for i := 0; i < 4; i++ {
			_, err := p.Blob.Put("in", fmt.Sprintf("o%d", i), []byte("x"), blob.PutOptions{})
			must(t, err)
		}
		v.Sleep(time.Second)
	})
	if processed != 4 {
		t.Fatalf("events processed = %d, want 4", processed)
	}
}

// Pattern 3: data transformation — topic-fed transform writing back to
// storage (the ETL archetype).
func TestPatternDataTransformation(t *testing.T) {
	p, v := NewVirtual(Options{})
	defer v.Close()
	v.Run(func() {
		must(t, p.Blob.CreateBucket("out", "t"))
		must(t, p.Pulsar.CreateTopic("jobs", 0))
		must(t, p.Tenant("t").Register("transform", func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			upper := []byte(fmt.Sprintf("transformed:%s", payload))
			_, err := p.Blob.Put("out", string(payload), upper, blob.PutOptions{})
			return nil, err
		}, faas.Config{}))
		must(t, faas.BindTopic(p.FaaS, p.Pulsar, "jobs", "t", "transform", ""))
		jobs, err := p.Pulsar.CreateProducer("jobs")
		must(t, err)
		for _, name := range []string{"a", "b", "c"} {
			_, err := jobs.Send([]byte(name))
			must(t, err)
		}
		v.Sleep(time.Second)
		for _, name := range []string{"a", "b", "c"} {
			data, _, err := p.Blob.Get("out", name)
			must(t, err)
			if string(data) != "transformed:"+name {
				t.Errorf("out[%s] = %q", name, data)
			}
		}
	})
}

// Pattern 4: data streaming — a stateful function bound to a topic.
func TestPatternDataStreaming(t *testing.T) {
	p, v := NewVirtual(Options{})
	defer v.Close()
	v.Run(func() {
		must(t, p.Pulsar.CreateTopic("stream", 0))
		cm := sketch.NewCountMinWH(272, 5)
		seen := 0
		done := simclock.NewEvent(v)
		must(t, p.Tenant("t").Register("count", func(_ *faas.Ctx, key []byte) ([]byte, error) {
			cm.Add(string(key), 1)
			if seen++; seen == 200 {
				done.Set()
			}
			return nil, nil
		}, faas.Config{}))
		must(t, faas.BindTopic(p.FaaS, p.Pulsar, "stream", "t", "count", ""))
		prod, _ := p.Pulsar.CreateProducer("stream")
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("u%d", i%50)
			_, err := prod.SendKey(k, []byte(k))
			must(t, err)
		}
		done.Wait()
		// Each of the 50 keys was sent 4 times.
		if est := cm.Estimate("u7"); est < 4 || est > 4+cm.ErrorBound() {
			t.Errorf("count estimate %d, want 4 (+ at most %d)", est, cm.ErrorBound())
		}
	})
}

// Pattern 5: state machine — an orchestrated multi-step workflow with
// parallel branches.
func TestPatternStateMachine(t *testing.T) {
	p, v := NewVirtual(Options{})
	defer v.Close()
	v.Run(func() {
		must(t, p.Tenant("t").Register("classify", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
			return in, nil
		}, faas.Config{}))
		must(t, p.Tenant("t").Register("small", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
			return []byte("small:" + string(in)), nil
		}, faas.Config{}))
		must(t, p.Tenant("t").Register("large", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
			return []byte("large:" + string(in)), nil
		}, faas.Config{}))
		sm := orchestrate.Chain(
			orchestrate.Task("classify"),
			orchestrate.Parallel(orchestrate.Task("small"), orchestrate.Task("large")),
		)
		out, err := p.Orchestrator.Execute("t", sm, []byte("ab"), obs.TraceCtx{})
		must(t, err)
		if string(out) != `["small:ab","large:ab"]` {
			t.Errorf("out = %q", out)
		}
	})
}

// Pattern 6: bundled pattern — one deployment combining several of the
// above: a periodic tick fans a work topic out to workers whose results feed
// a streaming aggregate.
func TestPatternBundled(t *testing.T) {
	p, v := NewVirtual(Options{})
	defer v.Close()
	var aggregated int64
	v.Run(func() {
		must(t, p.Pulsar.CreateTopic("work", 0))
		must(t, p.Pulsar.CreateTopic("results", 0))
		work, err := p.Pulsar.CreateProducer("work")
		must(t, err)
		prod, err := p.Pulsar.CreateProducer("results")
		must(t, err)

		// Worker: bound to the work topic, publishes results to the other.
		must(t, p.Tenant("t").Register("worker", func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			ctx.Work(10 * time.Millisecond)
			_, err := prod.Send(payload)
			return nil, err
		}, faas.Config{}))
		must(t, faas.BindTopic(p.FaaS, p.Pulsar, "work", "t", "worker", ""))

		// Streaming aggregate over results.
		agg := simclock.NewEvent(v)
		must(t, p.Tenant("t").Register("agg", func(*faas.Ctx, []byte) ([]byte, error) {
			if atomic.AddInt64(&aggregated, 1) == 9 {
				agg.Set()
			}
			return nil, nil
		}, faas.Config{}))
		must(t, faas.BindTopic(p.FaaS, p.Pulsar, "results", "t", "agg", ""))

		// Periodic tick: every second, publish a batch of work.
		must(t, p.Tenant("t").Register("tick", func(ctx *faas.Ctx, _ []byte) ([]byte, error) {
			for i := 0; i < 3; i++ {
				if _, err := work.Send([]byte(fmt.Sprintf("job-%d", i))); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}, faas.Config{}))
		schedule := []time.Duration{0, time.Second, 2 * time.Second}
		rep := faas.Drive(p.FaaS, "t", "tick", nil, schedule)
		rep.Wait()
		agg.Wait()
	})
	if aggregated != 9 {
		t.Fatalf("aggregated = %d, want 9 (3 ticks × 3 jobs)", aggregated)
	}
}
