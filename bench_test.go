package repro

// Benchmarks mirroring the experiment suite (DESIGN.md §2): one testing.B
// benchmark per experiment table E1-E18, plus micro-benchmarks for the hot
// paths (function invocation, message publish, sketch update, ephemeral
// put/get). Experiment benchmarks execute a full deterministic simulation
// per iteration; the interesting output is the tables themselves
// (cmd/benchrunner prints them) — here we measure how long regenerating each
// one takes.

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/autoscale"
	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faas"
	"repro/internal/gateway"
	"repro/internal/jiffy"
	"repro/internal/obs"
	"repro/internal/orchestrate"
	"repro/internal/pulsar"
	"repro/internal/scheduler"
	"repro/internal/simclock"
	"repro/internal/sketch"
	"repro/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	if testing.Short() {
		b.Skip("experiment benchmarks skipped in -short mode (full simulation per iteration)")
	}
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		tb := e.Run()
		if len(tb.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkE1CostEfficiency(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2Elasticity(b *testing.B)        { benchExperiment(b, "E2") }
func BenchmarkE3ColdStart(b *testing.B)         { benchExperiment(b, "E3") }
func BenchmarkE4EphemeralState(b *testing.B)    { benchExperiment(b, "E4") }
func BenchmarkE5Isolation(b *testing.B)         { benchExperiment(b, "E5") }
func BenchmarkE6PulsarSketch(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkE7Orchestration(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8Training(b *testing.B)          { benchExperiment(b, "E8") }
func BenchmarkE9Stragglers(b *testing.B)        { benchExperiment(b, "E9") }
func BenchmarkE10Matmul(b *testing.B)           { benchExperiment(b, "E10") }
func BenchmarkE11Multiplexing(b *testing.B)     { benchExperiment(b, "E11") }
func BenchmarkE12BinPacking(b *testing.B)       { benchExperiment(b, "E12") }
func BenchmarkE13Video(b *testing.B)            { benchExperiment(b, "E13") }
func BenchmarkE14SeqCompare(b *testing.B)       { benchExperiment(b, "E14") }
func BenchmarkE15PulsarDurability(b *testing.B) { benchExperiment(b, "E15") }
func BenchmarkE16Hyperparam(b *testing.B)       { benchExperiment(b, "E16") }
func BenchmarkE17Inference(b *testing.B)        { benchExperiment(b, "E17") }
func BenchmarkE18Leases(b *testing.B)           { benchExperiment(b, "E18") }
func BenchmarkE19Security(b *testing.B)         { benchExperiment(b, "E19") }
func BenchmarkE20SLA(b *testing.B)              { benchExperiment(b, "E20") }
func BenchmarkE21TieredStorage(b *testing.B)    { benchExperiment(b, "E21") }
func BenchmarkE22Provisioned(b *testing.B)      { benchExperiment(b, "E22") }
func BenchmarkE23ORAM(b *testing.B)             { benchExperiment(b, "E23") }
func BenchmarkE24IsolationTech(b *testing.B)    { benchExperiment(b, "E24") }
func BenchmarkE25Evolution(b *testing.B)        { benchExperiment(b, "E25") }
func BenchmarkE26ChaosRecovery(b *testing.B)    { benchExperiment(b, "E26") }
func BenchmarkE27Elastic(b *testing.B)          { benchExperiment(b, "E27") }

// --- micro-benchmarks on the real clock (data-plane hot paths) ---

// BenchmarkInvokeWarm measures warm synchronous invocation overhead through
// the public tenant handle.
func BenchmarkInvokeWarm(b *testing.B) {
	bench := core.New(core.Options{}).Tenant("bench")
	if err := bench.Register("noop", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		return in, nil
	}, faas.Config{WarmStart: 1, ColdStart: 1, KeepAlive: time.Hour}); err != nil {
		b.Fatal(err)
	}
	if _, err := bench.Invoke("noop", nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Invoke("noop", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGatewayInvoke measures the same warm invocation as
// BenchmarkInvokeWarm, but end-to-end through the HTTP gateway: a live TCP
// listener, bearer auth, request parsing, Clock.Join, header marshalling and
// the response write. The delta against InvokeWarm is the full HTTP-path
// overhead. One op is one HTTP round trip, so this runs at its own (smaller)
// fixed iteration count in bench.sh.
func BenchmarkGatewayInvoke(b *testing.B) {
	p := core.New(core.Options{})
	gw := gateway.New(p, gateway.Config{Tokens: map[string]string{"bench-token": "bench"}})
	srv := httptest.NewServer(gw)
	defer srv.Close()
	if err := p.FaaS.Register("noop", "bench", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		return in, nil
	}, faas.Config{WarmStart: 1, ColdStart: 1, KeepAlive: time.Hour}); err != nil {
		b.Fatal(err)
	}
	client := &gateway.Client{BaseURL: srv.URL, Token: "bench-token"}
	if _, err := client.Invoke("noop", nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Invoke("noop", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBreakerFastFail measures the open-breaker rejection path: an
// invoke against a tripped function must be refused before a concurrency
// slot is reserved, so the steady-state cost of shedding load is a lookup
// plus the breaker check.
func BenchmarkBreakerFastFail(b *testing.B) {
	p := core.New(core.Options{})
	if err := p.FaaS.Register("flaky", "bench", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		return nil, errors.New("boom")
	}, faas.Config{WarmStart: 1, ColdStart: 1, BreakerThreshold: 3, BreakerCooldown: time.Hour}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, _ = p.FaaS.InvokeFor("bench", "flaky", nil)
	}
	if st, err := p.FaaS.BreakerState("bench", "flaky"); err != nil || st != "open" {
		b.Fatalf("breaker = %q, %v; want open", st, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.FaaS.InvokeFor("bench", "flaky", nil); !errors.Is(err, faas.ErrCircuitOpen) {
			b.Fatalf("want ErrCircuitOpen, got %v", err)
		}
	}
}

// BenchmarkInvokeWithRetry measures the retry wrapper's overhead:
// "first-try" is the happy path (no backoff slept), "one-retry" forces one
// failed attempt and a nanosecond backoff per call.
func BenchmarkInvokeWithRetry(b *testing.B) {
	pol := faas.RetryPolicy{MaxAttempts: 3, Base: time.Nanosecond, Jitter: -1}
	b.Run("first-try", func(b *testing.B) {
		p := core.New(core.Options{})
		if err := p.FaaS.Register("noop", "bench", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
			return in, nil
		}, faas.Config{WarmStart: 1, ColdStart: 1, KeepAlive: time.Hour}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.FaaS.InvokeWithRetry("bench", "noop", "", nil, pol); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("one-retry", func(b *testing.B) {
		p := core.New(core.Options{})
		var calls int64
		if err := p.FaaS.Register("flip", "bench", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
			if atomic.AddInt64(&calls, 1)%2 == 1 {
				return nil, errors.New("transient")
			}
			return in, nil
		}, faas.Config{WarmStart: 1, ColdStart: 1, KeepAlive: time.Hour}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := p.FaaS.InvokeWithRetry("bench", "flip", "", nil, pol)
			if err != nil {
				b.Fatal(err)
			}
			if res.Attempt != 2 {
				b.Fatalf("attempt = %d, want 2", res.Attempt)
			}
		}
	})
}

// BenchmarkPulsarPublish measures the publish path: broker → replicated
// ledger append → subscription dispatch. "sync" is one quorum round trip
// per message (batching disabled, the pre-batching behavior); "batchN"
// buffers N SendAsync messages per group-commit ledger append.
func BenchmarkPulsarPublish(b *testing.B) {
	payload := workload.Payload(256, 1)
	setup := func(b *testing.B, batch int) *pulsar.Producer {
		b.Helper()
		p := core.New(core.Options{PulsarBatchMax: batch, PulsarFlushInterval: time.Hour})
		if err := p.Pulsar.CreateTopic("bench", 0); err != nil {
			b.Fatal(err)
		}
		prod, err := p.Pulsar.CreateProducer("bench")
		if err != nil {
			b.Fatal(err)
		}
		return prod
	}
	b.Run("sync", func(b *testing.B) {
		prod := setup(b, 1)
		b.SetBytes(256)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prod.Send(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, batch := range []int{16, 64} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			prod := setup(b, batch)
			b.SetBytes(256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := prod.SendAsync("", payload); err != nil {
					b.Fatal(err)
				}
			}
			if err := prod.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkObsOverhead quantifies what platform observability costs: the raw
// instrument primitives (striped counter, histogram observe, and their nil
// no-op forms), and the full Pulsar sync publish path with the registry
// attached versus core.Options{DisableObs: true}. The on/off publish pair is
// the number that matters — it bounds the tax every instrumented hot path
// pays.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("counter-inc", func(b *testing.B) {
		c := obs.New(nil).Counter("bench.counter")
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
	b.Run("counter-inc-nil", func(b *testing.B) {
		var c *obs.Counter
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram-observe", func(b *testing.B) {
		h := obs.New(nil).Histogram("bench.hist")
		for i := 0; i < b.N; i++ {
			h.Observe(time.Duration(i) * time.Microsecond)
		}
	})
	b.Run("histogram-observe-nil", func(b *testing.B) {
		var h *obs.Histogram
		for i := 0; i < b.N; i++ {
			h.Observe(time.Duration(i) * time.Microsecond)
		}
	})
	payload := workload.Payload(256, 1)
	for _, mode := range []struct {
		name    string
		disable bool
	}{
		{"publish-obs-on", false},
		{"publish-obs-off", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			p := core.New(core.Options{PulsarBatchMax: 1, PulsarFlushInterval: time.Hour, DisableObs: mode.disable})
			if err := p.Pulsar.CreateTopic("bench", 0); err != nil {
				b.Fatal(err)
			}
			prod, err := p.Pulsar.CreateProducer("bench")
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prod.Send(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJiffyPutGet measures ephemeral KV round trips (no modelled
// latency — the raw data-plane cost).
func BenchmarkJiffyPutGet(b *testing.B) {
	ctrl := jiffy.NewController(core.New(core.Options{}).Clock, nil, jiffy.Config{
		Latency: jiffy.NoLatency, DefaultLease: -1, BlockSize: 1 << 20,
	})
	ctrl.AddNode("n0", 64)
	ns, err := ctrl.CreateNamespace("/bench", jiffy.NamespaceOptions{InitialBlocks: 8})
	if err != nil {
		b.Fatal(err)
	}
	val := workload.Payload(128, 2)
	b.SetBytes(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k%d", i%4096)
		if err := ns.Put(key, val); err != nil {
			b.Fatal(err)
		}
		if _, err := ns.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvokeWarmParallel measures warm invocation under concurrent
// admission: 8 functions registered on one platform, parallel goroutines each
// pinned to their own function. The cost that matters is the platform-wide
// admission path (request-ID assignment, function-table lookup) — with a
// single platform mutex every tenant serializes there even though their
// functions are independent.
func BenchmarkInvokeWarmParallel(b *testing.B) {
	const nFuncs = 8
	p := core.New(core.Options{})
	names := make([]string, nFuncs)
	for i := range names {
		names[i] = fmt.Sprintf("noop%d", i)
		if err := p.FaaS.Register(names[i], "bench", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
			return in, nil
		}, faas.Config{WarmStart: 1, ColdStart: 1, KeepAlive: time.Hour, MaxConcurrency: 1 << 20}); err != nil {
			b.Fatal(err)
		}
		if _, err := p.FaaS.InvokeFor("bench", names[i], nil); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		name := names[int(next.Add(1)-1)%nFuncs]
		for pb.Next() {
			if _, err := p.FaaS.InvokeFor("bench", name, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJiffyPutGetParallel measures the contended state plane: 64 tenant
// namespaces live on one controller while parallel goroutines run put+get
// round trips. "multins" pins each goroutine to its own namespace — the
// isolation case §4.4 demands (one tenant's traffic must not perturb
// another's); "sharedns" aims every goroutine at a single namespace (the
// worst-case hot tenant). A controller-wide mutex plus a full lease scan per
// op serializes both shapes identically; per-namespace locking separates
// them.
func BenchmarkJiffyPutGetParallel(b *testing.B) {
	const tenants = 64
	setup := func(b *testing.B) []*jiffy.Namespace {
		b.Helper()
		ctrl := jiffy.NewController(simclock.Real{}, nil, jiffy.Config{
			Latency: jiffy.NoLatency, DefaultLease: -1, BlockSize: 1 << 20,
		})
		ctrl.AddNode("n0", 4*tenants)
		nss := make([]*jiffy.Namespace, tenants)
		for i := range nss {
			ns, err := ctrl.CreateNamespace(fmt.Sprintf("/tenant%02d", i), jiffy.NamespaceOptions{InitialBlocks: 2})
			if err != nil {
				b.Fatal(err)
			}
			nss[i] = ns
		}
		return nss
	}
	val := workload.Payload(128, 2)
	b.Run("multins", func(b *testing.B) {
		nss := setup(b)
		var next atomic.Int64
		b.SetBytes(256)
		b.SetParallelism(4)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			ns := nss[int(next.Add(1)-1)%tenants]
			i := 0
			for pb.Next() {
				key := fmt.Sprintf("k%d", i%1024)
				i++
				if err := ns.Put(key, val); err != nil {
					b.Fatal(err)
				}
				if _, err := ns.Get(key); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("sharedns", func(b *testing.B) {
		nss := setup(b)
		ns := nss[0]
		b.SetBytes(256)
		b.SetParallelism(4)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				key := fmt.Sprintf("k%d", i%1024)
				i++
				if err := ns.Put(key, val); err != nil {
					b.Fatal(err)
				}
				if _, err := ns.Get(key); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkAdmission measures what per-tenant admission costs on the warm
// invoke path: "off" is the uninstrumented baseline, "on" adds the weighted
// token-bucket admit per request (rate high enough that nothing ever queues,
// so the number is pure bookkeeping overhead).
func BenchmarkAdmission(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			p := core.New(core.Options{})
			if mode.on {
				p.FaaS.SetAdmission(faas.AdmissionConfig{RatePerSecond: 1e9, Burst: 1e9})
			}
			bench := p.Tenant("bench")
			if err := bench.Register("noop", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
				return in, nil
			}, faas.Config{WarmStart: 1, ColdStart: 1, KeepAlive: time.Hour}); err != nil {
				b.Fatal(err)
			}
			if _, err := bench.Invoke("noop", nil); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bench.Invoke("noop", nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAutoscaleTick measures one control-loop evaluation over a
// 64-function platform with a cluster attached — the recurring cost the
// elastic control plane adds per tick, independent of traffic.
func BenchmarkAutoscaleTick(b *testing.B) {
	p := core.New(core.Options{})
	p.FaaS.AttachCluster(scheduler.NewCluster(scheduler.Resources{CPU: 4000, MemMB: 16384}, scheduler.FirstFit{}), 0)
	bench := p.Tenant("bench")
	for i := 0; i < 64; i++ {
		if err := bench.Register(fmt.Sprintf("fn%d", i), func(ctx *faas.Ctx, in []byte) ([]byte, error) {
			return in, nil
		}, faas.Config{WarmStart: 1, ColdStart: 1}); err != nil {
			b.Fatal(err)
		}
	}
	ctrl := autoscale.New(p.Clock, p.FaaS, p.FaaS.Cluster(), autoscale.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Tick()
	}
}

// BenchmarkCountMinAdd measures the Figure-3 sketch's update path.
func BenchmarkCountMinAdd(b *testing.B) {
	cm := sketch.NewCountMinWH(272, 5)
	keys := workload.ZipfKeys(10000, 1.2, 4096, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Add(keys[i%len(keys)], 1)
	}
}

// BenchmarkAblationCountMinUpdate contrasts the standard and conservative
// Count-Min update rules: speed here, accuracy in the companion test
// TestConservativeTighterThanStandard — the DESIGN.md sketch-accuracy
// ablation.
func BenchmarkAblationCountMinUpdate(b *testing.B) {
	keys := workload.ZipfKeys(10000, 1.2, 4096, 3)
	b.Run("standard", func(b *testing.B) {
		cm := sketch.NewCountMinWH(272, 5)
		for i := 0; i < b.N; i++ {
			cm.Add(keys[i%len(keys)], 1)
		}
	})
	b.Run("conservative", func(b *testing.B) {
		cm := sketch.NewCountMinWH(272, 5)
		for i := 0; i < b.N; i++ {
			cm.AddConservative(keys[i%len(keys)], 1)
		}
	})
}

// BenchmarkAblationShuffleStore contrasts MapReduce shuffle substrates —
// blob store vs Jiffy — on identical word-count jobs (the E4 claim inside a
// real workload).
func BenchmarkAblationShuffleStore(b *testing.B) {
	if testing.Short() {
		b.Skip("full MapReduce simulation per iteration; skipped in -short mode")
	}
	chunks := make([]string, 8)
	for i := range chunks {
		chunks[i] = "alpha beta gamma delta epsilon zeta eta theta " +
			"alpha beta gamma delta"
	}
	job := analytics.Job{
		Name:     "wc",
		Reducers: 4,
		Map:      analytics.WordCountMap,
		Reduce:   analytics.SumReduce,
		WorkerConfig: faas.Config{
			ColdStart: time.Millisecond, MaxRetries: -1,
		},
	}
	b.Run("blob", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, v := core.NewVirtual(core.Options{})
			v.Run(func() {
				if err := p.Blob.CreateBucket("shuffle", "t"); err != nil {
					b.Error(err)
					return
				}
				if _, err := analytics.Run(p.FaaS, analytics.BlobShuffle{Store: p.Blob, Bucket: "shuffle"}, job, chunks); err != nil {
					b.Error(err)
				}
			})
			v.Close()
		}
	})
	b.Run("jiffy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, v := core.NewVirtual(core.Options{JiffyBlockSize: 1 << 20})
			v.Run(func() {
				ns, err := p.Jiffy.CreateNamespace("/shuffle", jiffy.NamespaceOptions{Lease: -1, InitialBlocks: 4})
				if err != nil {
					b.Error(err)
					return
				}
				if _, err := analytics.Run(p.FaaS, analytics.JiffyShuffle{NS: ns}, job, chunks); err != nil {
					b.Error(err)
				}
			})
			v.Close()
		}
	})
}

// BenchmarkHLLAdd measures cardinality-sketch updates.
func BenchmarkHLLAdd(b *testing.B) {
	h := sketch.NewHLL(12)
	keys := workload.UniformKeys(1<<20, 4096, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(keys[i%len(keys)])
	}
}

// BenchmarkOrchestratedChain measures a three-task composition end to end.
func BenchmarkOrchestratedChain(b *testing.B) {
	p := core.New(core.Options{})
	for _, n := range []string{"a", "b", "c"} {
		if err := p.FaaS.Register(n, "bench", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
			return in, nil
		}, faas.Config{WarmStart: 1, ColdStart: 1, KeepAlive: time.Hour}); err != nil {
			b.Fatal(err)
		}
	}
	e := p.Orchestrator
	sm := orchestrate.Chain(orchestrate.Task("a"), orchestrate.Task("b"), orchestrate.Task("c"))
	// Warm all instances.
	if _, err := e.Execute("bench", sm, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute("bench", sm, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracePropagation prices the causal-tracing hot path added in PR7.
// The sampler is set to discard everything (KeepFraction 0, nothing slow
// enough to force a keep), so retention never fills and every iteration runs
// real span staging, finalization, and the sampling decision — the same
// regime the traced alloc gate pins at 0 allocs/op. "span-chain" is the raw
// tracer primitive (root → two children, context handoff via Ctx());
// "invoke-traced" is the full warm invoke with tracing live, the number to
// compare against BenchmarkInvokeWarm for the end-to-end tracing tax.
func BenchmarkTracePropagation(b *testing.B) {
	discard := obs.SamplerConfig{Seed: 7, KeepFraction: 0, SlowThreshold: time.Hour}
	b.Run("span-chain", func(b *testing.B) {
		tr := obs.New(nil).Tracer()
		tr.SetSampler(discard)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			root := tr.Start(obs.TraceCtx{}, "bench.root")
			c1 := tr.Start(root.Ctx(), "bench.child")
			c2 := tr.Start(c1.Ctx(), "bench.grandchild")
			c2.End()
			c1.End()
			root.End()
		}
	})
	b.Run("invoke-traced", func(b *testing.B) {
		p := core.New(core.Options{})
		p.Obs.Tracer().SetSampler(discard)
		if err := p.FaaS.Register("noop", "bench", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
			return in, nil
		}, faas.Config{WarmStart: 1, ColdStart: 1, KeepAlive: time.Hour}); err != nil {
			b.Fatal(err)
		}
		if _, err := p.FaaS.InvokeFor("bench", "noop", nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.FaaS.InvokeFor("bench", "noop", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLabeledCounter prices the tenant-labeled instrument path:
// "resolved" is the steady state every wired subsystem uses (handle cached at
// registration, Inc on the hot path), "with-inc" includes the interned-label
// lookup for call sites that resolve per request, and "parallel" stresses the
// resolved handle across goroutines the way concurrent tenants hit it.
func BenchmarkLabeledCounter(b *testing.B) {
	b.Run("resolved", func(b *testing.B) {
		c := obs.New(nil).CounterVec("bench.requests", "tenant", "fn").With("acme", "resize")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("with-inc", func(b *testing.B) {
		cv := obs.New(nil).CounterVec("bench.requests", "tenant", "fn")
		cv.With("acme", "resize").Inc()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cv.With("acme", "resize").Inc()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		c := obs.New(nil).CounterVec("bench.requests", "tenant", "fn").With("acme", "resize")
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
}

// BenchmarkPartitionReassign measures one cursor-exact ownership handoff:
// drop from the current owner, transfer the coordination lock, and recover
// the exact cursor on the destination. The empty-ledger prune in loadTopic
// keeps this O(topic history), not O(moves so far) — without it each
// iteration would recover one more ledger than the last.
func BenchmarkPartitionReassign(b *testing.B) {
	p := core.New(core.Options{})
	if err := p.Pulsar.CreateTopic("bench", 0); err != nil {
		b.Fatal(err)
	}
	prod, err := p.Pulsar.CreateProducer("bench")
	if err != nil {
		b.Fatal(err)
	}
	payload := workload.Payload(256, 1)
	for i := 0; i < 10; i++ {
		if _, err := prod.Send(payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.Pulsar.MoveTopic("bench", "broker-0"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Pulsar.MoveTopic("bench", fmt.Sprintf("broker-%d", (i+1)%2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiBrokerPublish drives sync publishes round-robin across
// topics owned by four brokers — the multi-broker hot path: range-routing
// table lookup, per-broker owner cache, per-topic locks.
func BenchmarkMultiBrokerPublish(b *testing.B) {
	p := core.New(core.Options{Brokers: 4})
	payload := workload.Payload(256, 1)
	const topics = 8
	prods := make([]*pulsar.Producer, topics)
	for i := range prods {
		name := fmt.Sprintf("bench-%d", i)
		if err := p.Pulsar.CreateTopic(name, 0); err != nil {
			b.Fatal(err)
		}
		prod, err := p.Pulsar.CreateProducer(name)
		if err != nil {
			b.Fatal(err)
		}
		prods[i] = prod
		if _, err := prod.Send(payload); err != nil { // elect owners up front
			b.Fatal(err)
		}
	}
	b.SetBytes(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prods[i%topics].Send(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConformExplore measures one full conformance exploration of a
// reference workload (DESIGN.md §13): each iteration enumerates a small
// schedule budget and runs every schedule on a fresh virtual-clock platform,
// digesting the final state. This is a whole-simulation benchmark — run it
// with a small fixed -benchtime (bench.sh uses CONFORM_BENCH_TIME=20x), not
// the data-plane iteration counts.
func BenchmarkConformExplore(b *testing.B) {
	ref, err := conform.Reference("put-constant")
	if err != nil {
		b.Fatal(err)
	}
	opts := conform.Options{MaxSchedules: 12, Parallelism: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := conform.Explore(ref.Workload, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Conformant {
			b.Fatalf("put-constant diverged: %+v", rep.Witness)
		}
	}
}
