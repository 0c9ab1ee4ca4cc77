package repro

// Allocation-regression gate for the hot paths that are allocation-free: the
// warm invoke and the publish of the PR6 rework (DESIGN.md §10), and the
// durable ack — and for the gateway's sync invoke, whose own share of an HTTP
// round trip is pinned (DESIGN.md §14). These run in CI's alloc-gate job, so a
// change that quietly reintroduces a per-request or per-publish heap
// allocation fails the build instead of showing up three PRs later as a
// bench regression.
//
// The steady-state tests warm up well past the one-time allocations (pool
// seeding, the latency window's last growth step at invoke 4097, the tracer's
// retention cap) before measuring: those gates are about steady state, not
// first-touch cost. First-touch cost has its own gate, TestFunctionFootprint:
// what a function that is barely used costs the platform.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/pulsar"
	"repro/internal/sebs"
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

// TestFunctionFootprint is the fixed-cost gate beside the steady-state ones:
// state is sized by use, so a platform of many rarely-invoked functions — the
// paper's scale-to-zero case — pays per function what eight invokes put into
// it, not a latency window, a span log and a meter log sized for tens of
// thousands. 64 functions under 4 tenants, 8 invokes each, on a fresh
// platform that nobody reads: ≤6 KB allocated per function over the invokes
// (1.3 measured: an invoke writes one record to its function's invoke log,
// 160 B then 320 B, and the instruments it feeds — a latency series of two
// 3.9 KB blocks, two counters' 1 KB shards — are bought by the first fold,
// which only a read or a full log runs; 3.0 with a 512 B latency window per
// function and 56 B span records, 12.1 when every invoke wrote the
// instruments directly, 284 when the first invoke allocated a full 256 KiB
// window and the first metered unit a 1 MiB record ring) and ≤1 MB live
// afterwards (0.11 measured, 0.23 with the window and 56 B span records, 0.83
// with direct writes, was 18.4).
func TestFunctionFootprint(t *testing.T) {
	const tenants, perTenant, invokes = 4, 16, 8
	var before, mid, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := core.New(core.Options{})
	for i := 0; i < tenants; i++ {
		h := p.Tenant(fmt.Sprintf("tenant-%d", i))
		for j := 0; j < perTenant; j++ {
			if err := h.Register(fmt.Sprintf("fn-%d", j), func(ctx *faas.Ctx, in []byte) ([]byte, error) {
				return in, nil
			}, faas.Config{WarmStart: 1, ColdStart: 1, KeepAlive: time.Hour}); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&mid)
	for k := 0; k < invokes; k++ {
		for i := 0; i < tenants; i++ {
			h := p.Tenant(fmt.Sprintf("tenant-%d", i))
			for j := 0; j < perTenant; j++ {
				if _, err := h.Invoke(fmt.Sprintf("fn-%d", j), nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	runtime.ReadMemStats(&after)
	const fns = tenants * perTenant
	perFn := float64(after.TotalAlloc-mid.TotalAlloc) / fns
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%.0f B allocated per function over the invokes, %d B live", perFn, live)
	if perFn > 6<<10 {
		t.Errorf("%d invokes of each of %d functions allocate %.0f B per function, want <= %d", invokes, fns, perFn, 6<<10)
	}
	if live > 1<<20 {
		t.Errorf("platform with %d barely-used functions holds %d B live, want <= %d", fns, live, 1<<20)
	}
	runtime.KeepAlive(p)
}

// liveHeap is what the process holds once the collector has run.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestPlatformFootprint is the fixed cost before any use, and the tracer's at
// its most: what a platform that has registered 64 functions and invoked none
// holds, and what its span log holds once full. Observability state is sized
// by use like the rest (DESIGN.md §10): a histogram is a 32 B header until its
// first observation, a counter an 8 B one until its first Add, a tenant's SLO
// ring nothing until its first request, and a kept trace one record in a
// chunked byte log, about 5 B a span once its shape is interned, so the idle
// platform fits 128 KB (57 measured; 53 before the invoke log's fields took a
// function past the 512 B size class, 227 when each of its 27 + 2·64 counters
// was born with 1 KB of shards and the tenant with an 11.5 KB SLO ring, 941
// when each of its 22 + 64 histograms was born with 8 KB of buckets) and the
// full log 160 KB (102 measured; 199 when each span was its own delta-varint
// record, 1 037 when a span was a 56 B record, 2 520 when it was a 136 B
// SpanData).
func TestPlatformFootprint(t *testing.T) {
	const fns, idleBound, logBound = 64, 128 << 10, 160 << 10
	before := liveHeap()
	p := core.New(core.Options{})
	h := p.Tenant("idle")
	for j := 0; j < fns; j++ {
		if err := h.Register(fmt.Sprintf("fn-%d", j), func(ctx *faas.Ctx, in []byte) ([]byte, error) {
			return in, nil
		}, faas.Config{WarmStart: 1, ColdStart: 1, KeepAlive: time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	idle := liveHeap() - before
	runtime.KeepAlive(p)

	before = liveHeap()
	tr := obs.New(nil).Tracer()
	for tr.Stats().Retained < obs.DefaultMaxSpans {
		root := tr.Start(obs.TraceCtx{}, "faas.invoke")
		tr.Start(root.Ctx(), "faas.exec").End()
		root.EndLabeled("idle", "fn-0", false)
	}
	full := liveHeap() - before
	runtime.KeepAlive(tr)

	t.Logf("platform with %d never-invoked functions holds %d B; a tracer at its %d-span cap holds %d B", fns, idle, obs.DefaultMaxSpans, full)
	if idle > idleBound {
		t.Errorf("platform with %d never-invoked functions holds %d B live, want <= %d", fns, idle, idleBound)
	}
	if full > logBound {
		t.Errorf("tracer at its cap holds %d B live, want <= %d", full, logBound)
	}
}

// TestSebsCallBytes is the fixed cost at its most frequent: sim-sebs builds a
// whole platform, gateway included, for every SeBS-style call, so what one
// call asks the allocator for is mostly what a platform costs before and at
// its first use. After one warm-up call, a sebs.Run of 2 requests per app
// allocates ≤400 KB (346 measured, 351 with 56 B span records and a latency
// window: its invokes write invoke-log records and a call never reads its
// metrics, so no fold buys the invoke instruments; 406 when every invoke
// wrote them directly, 513 when every counter was born with
// 1 KB of shards, every histogram's first observation bought its exemplars
// with its buckets, each tenant's SLO ring was its full 11.5 KB and each
// platform seeded a 4.9 KB jitter rng it never drew from). The figure is the
// least of three calls: a call whose client dials a second connection to the
// fresh server, or that meets a collection emptying net/http's pools, buys up
// to 40 KB more of net/http's buffers.
func TestSebsCallBytes(t *testing.T) {
	const budget = 400 << 10
	if raceDetector {
		t.Skip("net/http's pooled buffers are reallocated under the race detector")
	}
	call := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := sebs.Run(sebs.Config{Requests: 2}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	call()
	got := min(call(), call(), call())
	t.Logf("a 2-request sebs call allocates %d B", got)
	if got > budget {
		t.Fatalf("a 2-request sebs call allocates %d B, want <= %d", got, budget)
	}
}

// TestPublishSyncAtMostOneAlloc pins the synchronous publish path at ≤1
// alloc per message. The budget covers the amortized refill of the entry
// bytes the topic's current ledger owns (one 128 KB chunk per ~400 entries)
// and the bookies' entry-index segments;
// with nobody subscribed the topic's window ring stays at its first size. A
// per-publish message copy, a rebuilt map or a one-element commit whose
// arrays escape to the heap would blow well past it.
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

// TestBatchFlushProducerZeroAllocs pins a batching producer's own share of
// a flush at zero allocations. Its buffer is MaxBatch slots whatever the
// partition count, taken by the first SendAsync, so after one full flush of
// MaxBatch messages every later flush, however its seeded random keys spread
// over 16 partitions, allocates only below the producer: the entry chunks
// and index segments the topics' ledgers take. Every allocation is recorded
// (MemProfileRate 1) and charged to the first frame of its stack outside the
// runtime; a per-partition batch that regrows by append when one flush gives
// its partition more messages than it has held before is charged to the
// producer.
func TestBatchFlushProducerZeroAllocs(t *testing.T) {
	const partitions, maxBatch, flushes = 16, 64, 200
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	p := core.New(core.Options{PulsarFlushInterval: time.Hour})
	if err := p.Pulsar.CreateTopic("flush-gate", partitions); err != nil {
		t.Fatal(err)
	}
	prod, err := p.Pulsar.CreateProducerOpts("flush-gate", pulsar.ProducerOptions{MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d-%08x", i, rng.Uint32())
	}
	payload := make([]byte, 256)
	flush := func() { // the MaxBatch-th SendAsync flushes
		for i := 0; i < maxBatch; i++ {
			if err := prod.SendAsync(keys[rng.Intn(len(keys))], payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush()
	before := producerAllocs()
	mallocs := runtimeMallocs()
	for i := 0; i < flushes; i++ {
		flush()
	}
	total := runtimeMallocs() - mallocs
	got := producerAllocs() - before
	t.Logf("%d flushes of %d messages: %d allocations, %d of them the producer's", flushes, maxBatch, total, got)
	if got != 0 {
		t.Fatalf("the producer allocated %d times in %d flushes, want 0", got, flushes)
	}
}

// producerAllocs is how many allocations the memory profile charges to a
// pulsar.Producer method: the first frame of the allocation's stack outside
// the runtime. Two collections publish every allocation made before the
// call.
func producerAllocs() int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for f, more := frames.Next(); ; f, more = frames.Next() {
			if !strings.HasPrefix(f.Function, "runtime.") {
				if strings.HasPrefix(f.Function, "repro/internal/pulsar.(*Producer).") {
					total += r.AllocObjects
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// runtimeMallocs is the process's cumulative heap allocation count.
func runtimeMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
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

// TestAckZeroAllocs pins Consumer.Ack — which returns only once the full
// cursor record is in the coordination store — at zero heap allocations per
// ack, in three shapes: the benchmark's (one consumer acking in order on a
// Shared subscription), the same on KeyShared with keyed messages, and a
// Shared subscription whose second consumer holds 4000 messages and never
// acks, so every measured ack lands beyond the prefix and rewrites a record
// of thousands of out-of-order acks. In that last shape the ack set, the
// encode buffer and the store node's buffer each grow by an entry per ack;
// they double a handful of times over the run, which AllocsPerRun's integer
// average counts as the amortized zero it is — a per-ack map walk, sort or
// record copy would show as whole allocations.
func TestAckZeroAllocs(t *testing.T) {
	const warm, runs = 1000, 2000
	shapes := []struct {
		name    string
		mode    pulsar.SubMode
		keyed   bool
		stalled int // messages held by a second consumer that never acks
	}{
		{name: "shared-in-order", mode: pulsar.Shared},
		{name: "key-shared-in-order", mode: pulsar.KeyShared, keyed: true},
		{name: "shared-stalled-peer", mode: pulsar.Shared, stalled: 4000},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			p := core.New(core.Options{PulsarBatchMax: 16})
			if err := p.Pulsar.CreateTopic("ack-gate", 0); err != nil {
				t.Fatal(err)
			}
			prod, err := p.Pulsar.CreateProducer("ack-gate")
			if err != nil {
				t.Fatal(err)
			}
			cons, err := p.Pulsar.Subscribe("ack-gate", "s", sh.mode, pulsar.Earliest)
			if err != nil {
				t.Fatal(err)
			}
			defer cons.Close()
			// One more than warm+runs: AllocsPerRun makes a warm-up call.
			mine, total := warm+runs+1, warm+runs+1
			if sh.stalled > 0 {
				// Round-robin dispatch: the two consumers get alternate seqs.
				peer, err := p.Pulsar.Subscribe("ack-gate", "s", sh.mode, pulsar.Earliest)
				if err != nil {
					t.Fatal(err)
				}
				defer peer.Close()
				mine, total = sh.stalled, 2*sh.stalled
			}
			payload := make([]byte, 256)
			for i := 0; i < total; i++ {
				key := ""
				if sh.keyed {
					key = fmt.Sprintf("k%d", i%64)
				}
				if err := prod.SendAsync(key, payload); err != nil {
					t.Fatal(err)
				}
			}
			if err := prod.Flush(); err != nil {
				t.Fatal(err)
			}
			msgs := make([]pulsar.Message, 0, mine)
			for len(msgs) < mine {
				m, ok := cons.Receive(time.Second)
				if !ok {
					t.Fatalf("received %d of %d messages", len(msgs), mine)
				}
				msgs = append(msgs, m)
			}
			next := 0
			ack := func() {
				if err := cons.Ack(msgs[next]); err != nil {
					t.Fatal(err)
				}
				next++
			}
			for i := 0; i < warm; i++ {
				ack()
			}
			if got := testing.AllocsPerRun(runs, ack); got != 0 {
				t.Fatalf("ack allocates %.3f allocs/op, want 0", got)
			}
			want := int64(total - next)
			if n, err := p.Pulsar.Backlog("ack-gate", "s"); err != nil || n != want {
				t.Fatalf("backlog = %d, %v; want %d (every ack counted once)", n, err, want)
			}
		})
	}
}

// TestStreamBytesPerMessage is the byte budget beside the count budgets: what
// the whole stream path asks the allocator for per 256 B keyed message — sync
// and batch16 producers over a 4-partition topic, one consumer that receives
// and acks everything — stays within 300 B. About 270 B of that is the one
// stored copy (the entry, in the entry log its ledger owns); the rest is
// that ledger's index, which the ledger's bookies share: one 8 B
// pointer-free record an entry, written once (DESIGN.md §10). Neither end of
// the path is in it: a consumer that keeps up cycles through one small
// window ring on the broker and through the receiver queue it was given at
// Subscribe. Growing cache and indexes by append read 1115 B here, segmented
// logs 621 B, the window 501 B, the fixed receiver queue 387 B, one entry
// table a ledger 339 B, entries without topic and seq 300 B, entry bytes a
// ledger owns 310 B, an 8 B index record over the ledger's entry log 280 B.
func TestStreamBytesPerMessage(t *testing.T) {
	const burst, warm, timed, budget = 100, 10, 200, 300
	p := core.New(core.Options{})
	if err := p.Pulsar.CreateTopic("bytes-gate", 4); err != nil {
		t.Fatal(err)
	}
	syncProd, err := p.Pulsar.CreateProducer("bytes-gate")
	if err != nil {
		t.Fatal(err)
	}
	batchProd, err := p.Pulsar.CreateProducerOpts("bytes-gate", pulsar.ProducerOptions{MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := p.Pulsar.Subscribe("bytes-gate", "s", pulsar.Shared, pulsar.Earliest)
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	payload := make([]byte, 256)
	// One burst through each producer in turn, then receive and ack it.
	round := func(b int) {
		for i := 0; i < burst; i++ {
			key := keys[(b*burst+i)*7%len(keys)]
			if b%2 == 1 {
				err = batchProd.SendAsync(key, payload)
			} else {
				_, err = syncProd.SendKey(key, payload)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := batchProd.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < burst; i++ {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatalf("burst %d: received %d of %d messages", b, i, burst)
			}
			if err := cons.Ack(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	for b := 0; b < warm; b++ {
		round(b)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := warm; b < warm+timed; b++ {
		round(b)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / (timed * burst)
	t.Logf("the stream path allocates %.0f B per 256 B message", got)
	if got > budget {
		t.Fatalf("the stream path allocates %.0f B per 256 B message, want <= %d", got, budget)
	}
	if n, err := p.Pulsar.Backlog("bytes-gate", "s"); err != nil || n != 0 {
		t.Fatalf("backlog = %d, %v; want 0", n, err)
	}
}

// TestTopicMemoryBoundedByBacklog is the retention gate beside the allocation
// ones: a broker holds a topic's unacked tail, and the bookies hold about one
// ledger of it per partition, not the topic. 200 000 keyed 256 B messages go
// through publish → Receive → Ack on 4 partitions in bursts of 100. Each
// partition's ledger rolls at 4080 entries and a ledger every subscription
// has acked past is deleted, so what the process holds plateaus: the live
// heap after the whole run is within 1.2× of the live heap after a tenth of
// it, and at most 3.25 MB (≈3.1 MB measured: each chunk of entry bytes
// belongs to one ledger of one partition and goes with it, found through an
// 8 B index record; ≈3.4 MB when that record was a 32 B slot, ≈5.7 MB when a
// producer's 128 KB block held entries of all four partitions and went only
// once each had deleted the ledger holding its share), and the bookies never
// hold more than two ledgers' worth of entry replicas per partition. Without
// deletion the heap grew ≈380 B per message — the entry and a 24 B index
// slot on each of three bookies — ≈76 MB over this run. The rings themselves are
// internal/pulsar's to see: its TestWindowRingsBoundedAtScale holds each
// partition's to 1024 slots over this same load.
func TestTopicMemoryBoundedByBacklog(t *testing.T) {
	const (
		burst, warm, partitions = 100, 10, 4
		// Two ledgers of topicLedgerEntries (internal/pulsar) per partition,
		// each entry on a write quorum of two bookies.
		maxEntries = 2 * 4080 * partitions * 2
	)
	// A tenth of the run must be past the first rolls: before them the
	// heap is still climbing to the plateau.
	const total = 200000
	p := core.New(core.Options{})
	if err := p.Pulsar.CreateTopic("retain-gate", partitions); err != nil {
		t.Fatal(err)
	}
	prod, err := p.Pulsar.CreateProducerOpts("retain-gate", pulsar.ProducerOptions{MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := p.Pulsar.Subscribe("retain-gate", "s", pulsar.Shared, pulsar.Earliest)
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	payload := make([]byte, 256)
	entries := func() int {
		n := 0
		for _, id := range p.Ledgers.BookieIDs() {
			b, _ := p.Ledgers.Bookie(id)
			n += b.EntryCount()
		}
		return n
	}
	maxHeld := 0
	round := func(b int) {
		for i := 0; i < burst; i++ {
			if err := prod.SendAsync(keys[(b*burst+i)*7%len(keys)], payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := prod.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < burst; i++ {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatalf("burst %d: received %d of %d messages", b, i, burst)
			}
			if err := cons.Ack(m); err != nil {
				t.Fatal(err)
			}
		}
		if n := entries(); n > maxEntries {
			t.Fatalf("after burst %d the bookies hold %d entry replicas, want <= %d", b, n, maxEntries)
		} else {
			maxHeld = max(maxHeld, n)
		}
	}
	rounds := total / burst
	for b := 0; b < warm+rounds/10; b++ {
		round(b)
	}
	tenth := liveHeap()
	for b := warm + rounds/10; b < warm+rounds; b++ {
		round(b)
	}
	end := liveHeap()
	t.Logf("live heap %.2f MB after %d messages, %.2f MB after %d; the bookies held at most %d entry replicas",
		float64(tenth)/(1<<20), total/10, float64(end)/(1<<20), total, maxHeld)
	if float64(end) > 1.2*float64(tenth) {
		t.Fatalf("live heap %.2f MB after %d messages, %.2f MB after a tenth of them: want a plateau (<= 1.2x)",
			float64(end)/(1<<20), total, float64(tenth)/(1<<20))
	}
	if end > 3.25*(1<<20) {
		t.Fatalf("live heap %.2f MB after %d messages, want <= 3.25 MB", float64(end)/(1<<20), total)
	}
	if n, err := p.Pulsar.Backlog("retain-gate", "s"); err != nil || n != 0 {
		t.Fatalf("backlog = %d, %v; want 0", n, err)
	}
}

// TestRollAndTrimAllocs bounds what a topic pays per ledger for forgetting:
// a Writer.Roll — the new ledger's metadata node and its path, the old one
// sealed in place — plus the DeleteLedger of a sealed ledger allocate at most
// 8 times.
func TestRollAndTrimAllocs(t *testing.T) {
	p := core.New(core.Options{})
	w, err := p.Ledgers.CreateLedger(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		sealed := w.ID()
		if err := w.Roll(); err != nil {
			t.Fatal(err)
		}
		if err := p.Ledgers.DeleteLedger(sealed); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a roll plus a delete allocates %.1f times", got)
	if got > 8 {
		t.Fatalf("a roll plus a delete allocates %.1f times, want <= 8", got)
	}
}

// echoGateway is a gateway over a platform with one warm 1 ns echo function,
// "echo" of tenant "bench", reachable with the token "bench-token".
func echoGateway(t *testing.T) *gateway.Gateway {
	t.Helper()
	p := core.New(core.Options{})
	if err := p.Tenant("bench").Register("echo", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		return in, nil
	}, faas.Config{WarmStart: 1, ColdStart: 1, KeepAlive: time.Hour}); err != nil {
		t.Fatal(err)
	}
	return gateway.New(p, gateway.Config{Tokens: map[string]string{"bench-token": "bench"}})
}

// loopbackClient serves gw on a loopback listener and returns a Client that
// holds one keep-alive connection to it. Budgets over it include net/http's
// allocations, which only hold without the race detector: under it sync.Pool
// drops what net/http returns to its pools.
func loopbackClient(t *testing.T, gw *gateway.Gateway) *gateway.Client {
	t.Helper()
	if raceDetector {
		t.Skip("net/http's pooled buffers are reallocated under the race detector")
	}
	srv := httptest.NewServer(gw)
	t.Cleanup(srv.Close)
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	t.Cleanup(tr.CloseIdleConnections)
	return &gateway.Client{BaseURL: srv.URL, Token: "bench-token", HTTP: &http.Client{Transport: tr}}
}

// discardWriter is a reusable http.ResponseWriter that allocates nothing.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestGatewayServeAllocs pins what Gateway.ServeHTTP itself allocates for a
// sync 64 B echo — no network, a reusable writer. Three are the gateway's: the
// mux's match and the two allocations behind both of the response's header
// values (X-Taureau-Result and Content-Length, one string and one backing
// array, which the writer's header map keeps past the handler); two are this
// test's request copy and body wrapper. What runInvoke hands Clock.Join and
// gets back is one pooled invocation with its run func bound once: it was a
// closure and a holder for its results, 7 in all. The eighth before that was
// http.MaxBytesReader, now kept for the body of undeclared length: net/http
// ends a declared one itself, and one declared over MaxBody is refused unread.
// The body buffer is borrowed from the gateway's pool. It was 18 with
// io.ReadAll, seven Header.Set + strconv pairs and a goroutine hop per invoke.
func TestGatewayServeAllocs(t *testing.T) {
	want := 5
	if raceDetector {
		// sync.Pool drops a quarter of its Puts under the race detector, so
		// the body buffer and the invocation (two allocations each) are
		// bought anew for a quarter of requests: 6 measured.
		want = 6
	}
	gw := echoGateway(t)
	payload := make([]byte, 64)
	tmpl := httptest.NewRequest(http.MethodPost, "/v1/functions/echo/invoke", nil)
	tmpl.Header.Set("Authorization", "Bearer bench-token")
	body := bytes.NewReader(nil)
	w := &discardWriter{header: http.Header{}}
	serve := func() {
		req := *tmpl // the mux writes its match into the request
		body.Reset(payload)
		req.Body, req.ContentLength = io.NopCloser(body), int64(len(payload))
		clear(w.header)
		w.status = 0
		gw.ServeHTTP(w, &req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	for i := 0; i < 20000; i++ {
		serve()
	}
	got := testing.AllocsPerRun(2000, serve)
	t.Logf("ServeHTTP allocates %.1f allocs/op for a 64 B echo", got)
	if got > float64(want) {
		t.Fatalf("ServeHTTP allocates %.1f allocs/op for a 64 B echo, want <= %d", got, want)
	}
}

// TestGatewayClientInvokeAllocs pins a whole Client.Invoke of 64 B over a
// loopback keep-alive connection — client, server and net/http's server
// under it — as the process-wide malloc count per call. It was 123, then 102
// with seven metadata headers sent through http.Client.Do, then 83, 76 and
// 75 with the Client's request state pooled on net/http's Transport, and
// measures 33 now that a Client on a plain *http.Transport speaks HTTP/1.1
// itself: it writes the request into its connection's buffer and reads the
// answer's head in place, building no request, response, header map,
// context or channel (net/http's client took 44 of the 75). Of the 33, two
// are the client's: the result's buffer and its X-Taureau-Result string. The
// other 31 are the server's: three the gateway's (the mux's match and the
// two allocations behind each response header value, above) and 28
// net/http's — the server's request, its MIME header parse (one map, value
// and key string per header it does not know by heart), its contexts and
// body readers, Header.Clone on WriteHeader. The three spare are for its
// next release.
func TestGatewayClientInvokeAllocs(t *testing.T) {
	const want = 36
	c := loopbackClient(t, echoGateway(t))
	payload := make([]byte, 64)
	invoke := func() {
		if res, err := c.Invoke("echo", payload); err != nil || len(res.Output) != len(payload) {
			t.Fatalf("invoke: %d bytes, %v", len(res.Output), err)
		}
	}
	for i := 0; i < 20000; i++ {
		invoke()
	}
	// AllocsPerRun counts every goroutine's mallocs: the server's are in.
	got := testing.AllocsPerRun(2000, invoke)
	t.Logf("Client.Invoke allocates %.1f allocs/op for a 64 B echo over loopback", got)
	if got > want {
		t.Fatalf("Client.Invoke allocates %.1f allocs/op for a 64 B echo over loopback, want <= %d", got, want)
	}
}

// TestGatewayAsyncAllocs pins an async invocation over a loopback keep-alive
// connection: a Client.InvokeAsync of 64 B plus the one Client.Invocation
// that finds it finished, as the process-wide malloc count per pair (the
// invocation's own goroutine included). The submits go first, a thousand in
// a row, then a pause no echo outlasts, then one poll each, so that no
// pending poll is counted. It was 167 (88 + 79) when both answers were JSON
// the server indented and the client decoded, the output in base64, and 134
// when each answer became the sync invoke's wire — an empty 202 with a
// Location and a poll that answers what the sync invoke would have — sent
// through net/http's client. The Client now writes both requests itself,
// the poll's path included, in pieces, and keeps of the answers the submit's
// Location and the poll's output and X-Taureau-Result: 62 measured, of which
// the client's are those three; the server's are the rest.
func TestGatewayAsyncAllocs(t *testing.T) {
	const want, n = 65, 1000
	c := loopbackClient(t, echoGateway(t))
	payload := make([]byte, 64)
	ids := make([]string, n)
	round := func() (submit, poll float64) {
		m0 := runtimeMallocs()
		for i := range ids {
			id, err := c.InvokeAsync("echo", payload)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		time.Sleep(100 * time.Millisecond) // a 1 ns echo is done long before
		m1 := runtimeMallocs()
		for _, id := range ids {
			if st, err := c.Invocation(id); err != nil || st.Status != "succeeded" || len(st.Output) != len(payload) {
				t.Fatalf("poll of %s: %q, %d bytes, %v; want it finished", id, st.Status, len(st.Output), err)
			}
		}
		m2 := runtimeMallocs()
		return float64(m1-m0) / n, float64(m2-m1) / n
	}
	round()
	submit, poll := round()
	t.Logf("an async 64 B echo allocates %.1f allocs: submit %.1f, finished poll %.1f", submit+poll, submit, poll)
	if submit+poll > want {
		t.Fatalf("an async 64 B echo allocates %.1f allocs (submit %.1f, poll %.1f), want <= %d", submit+poll, submit, poll, want)
	}
}

// TestGatewayPollMissAllocs pins what Gateway.ServeHTTP allocates for a poll
// of an id that is not there, a 404 no_invocation, on a reusable writer: the
// request copy's, the error and its message, the envelope's encoder and the
// header map's. The JSON Content-Type is one shared value, as the
// octet-stream one is; Header().Set bought a value slice for it on every
// error and JSON body: 7 then, 6 measured.
func TestGatewayPollMissAllocs(t *testing.T) {
	want := 6
	if raceDetector {
		// sync.Pool drops a quarter of its Puts under the race detector, and
		// the envelope's encoder state comes from one: 8 measured, 9 before.
		want = 8
	}
	gw := echoGateway(t)
	tmpl := httptest.NewRequest(http.MethodGet, "/v1/invocations/inv-999999", nil)
	tmpl.Header.Set("Authorization", "Bearer bench-token")
	w := &discardWriter{header: http.Header{}}
	poll := func() {
		req := *tmpl // the mux writes its match into the request
		clear(w.header)
		w.status = 0
		gw.ServeHTTP(w, &req)
		if w.status != http.StatusNotFound {
			t.Fatalf("status %d", w.status)
		}
	}
	for i := 0; i < 2000; i++ {
		poll()
	}
	got := testing.AllocsPerRun(2000, poll)
	t.Logf("a poll of an unknown id allocates %.1f allocs/op", got)
	if got > float64(want) {
		t.Fatalf("a poll of an unknown id allocates %.1f allocs/op, want <= %d", got, want)
	}
}

// TestGatewayBigEchoBytes bounds the bytes a 64 KiB echo round trip asks the
// allocator for at 1.25x the payload. What is left is one buffer of the
// declared size where the client reads the response — the caller's result,
// its to keep — and the server's and the client's small change (1.1x in
// all). The request body goes out from the caller's own slice: the Client
// writes it on its connection with no copy buffer (net/http's Transport
// copied it through one of 32 KiB, 1.6x then). The server's buffer is
// borrowed from the gateway's pool, bought once for requests served one
// after another and not once each: it was the third piece of 2.6x, itself
// down from 9.4x when both sides grew io.ReadAll buffers from 512 B.
func TestGatewayBigEchoBytes(t *testing.T) {
	const size, runs = 64 << 10, 200
	c := loopbackClient(t, echoGateway(t))
	payload := make([]byte, size)
	invoke := func() {
		if res, err := c.Invoke("echo", payload); err != nil || len(res.Output) != size {
			t.Fatalf("invoke: %d bytes, %v", len(res.Output), err)
		}
	}
	for i := 0; i < 50; i++ {
		invoke()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		invoke()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("64 KiB echo allocates %.0f B per round trip (%.1fx the payload)", got, got/size)
	if got > 1.25*size {
		t.Fatalf("64 KiB echo allocates %.0f B per round trip (%.2fx the payload), want <= 1.25x", got, got/size)
	}
}

// TestConsumerHoldsAQueueNotTheBacklog is the retention gate for the other end
// of the path: a consumer that stops receiving costs its receiver queue, not a
// copy of everything published since. 200 000 keyed 256 B messages go to 4
// partitions with a consumer attached that never calls Receive, and what the
// process holds afterwards has grown by no more than 500 B per message: the
// entry and the entry-table slot every message costs (≈310 B) and its
// 104 B slot in the partition's window, which holds the unacked tail in a
// ring of up to twice that (≈150 B measured); 460 B measured, 533 B when
// each of three bookies kept its own index slot and entries named their
// topic and seq. A second copy of the Message on the consumer's side (656 B
// in all, when dispatch pushed the backlog into an inbox that grew) does not
// fit. The consumer then drains and acks all of it, each partition's seqs in
// order, through the flow path. And the queue is what a consumer costs: a
// Subscribe on a topic that is already owned allocates 120 KB at most (1024
// slots of 112 B, and a cursor per partition).
func TestConsumerHoldsAQueueNotTheBacklog(t *testing.T) {
	const budget, subscribeBudget = 500, 120 << 10
	total := 200000
	if raceDetector || testing.Short() {
		total = 50000 // same per-message figure, a tenth of the time under -race
	}
	p := core.New(core.Options{})
	if err := p.Pulsar.CreateTopic("queue-gate", 4); err != nil {
		t.Fatal(err)
	}
	prod, err := p.Pulsar.CreateProducerOpts("queue-gate", pulsar.ProducerOptions{MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := p.Pulsar.Subscribe("queue-gate", "s", pulsar.Shared, pulsar.Earliest)
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	// The first Subscribe elected the partitions' owners; this one only attaches.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	probe, err := p.Pulsar.Subscribe("queue-gate", "probe", pulsar.Shared, pulsar.Latest)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	probe.Close()
	t.Logf("a Subscribe on 4 owned partitions allocates %d B", m1.TotalAlloc-m0.TotalAlloc)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > subscribeBudget {
		t.Fatalf("a Subscribe on 4 owned partitions allocates %d B, want <= %d", got, subscribeBudget)
	}

	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	payload := make([]byte, 256)
	before := liveHeap()
	for i := 0; i < total; i++ {
		if err := prod.SendAsync(keys[i*7%len(keys)], payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := prod.Flush(); err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	got := float64(after-before) / float64(total)
	t.Logf("live heap grew %.0f B per unreceived 256 B message over %d messages", got, total)
	if got > budget {
		t.Fatalf("live heap grew %.0f B per unreceived 256 B message over %d messages, want <= %d", got, total, budget)
	}

	next := map[string]int64{}
	for i := 0; i < total; i++ {
		m, ok := cons.Receive(time.Second)
		if !ok {
			t.Fatalf("received %d of %d messages", i, total)
		}
		if m.Seq != next[m.Topic] {
			t.Fatalf("%s: seq %d arrived, want %d", m.Topic, m.Seq, next[m.Topic])
		}
		next[m.Topic]++
		if err := cons.Ack(m); err != nil {
			t.Fatal(err)
		}
	}
	if m, ok := cons.TryReceive(); ok {
		t.Fatalf("extra message: %s seq %d", m.Topic, m.Seq)
	}
	if n, err := p.Pulsar.Backlog("queue-gate", "s"); err != nil || n != 0 {
		t.Fatalf("backlog = %d, %v; want 0", n, err)
	}
}
