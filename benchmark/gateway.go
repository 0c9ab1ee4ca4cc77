package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/billing"
	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/gateway"
	gen "repro/internal/workload"
)

const (
	benchTenant = "bench"
	benchToken  = "bench-token"
	opHeader    = "X-Bench-Op"
	// warmupFor is how long a closed loop warms up. It is a time, not an op
	// count, so that set-up time is mostly this constant and not the host's
	// speed regime (see endToEnd): what a change adds to set-up comes on top.
	warmupFor   = 50 * time.Millisecond
	gwEchoOps   = 30_000 // per round at the nominal -seconds
	gwEchoChunk = 250    // ops of one client that one throughput sample covers
)

// minimalLatency sets every modelled latency to its minimum, as
// BenchmarkGatewayInvoke does: what is left is the program's own overhead,
// not time.Sleep.
func minimalLatency(cfg faas.Config) faas.Config {
	cfg.WarmStart, cfg.ColdStart, cfg.KeepAlive = 1, 1, time.Hour
	return cfg
}

// echoHandler is the registered function: it returns its payload. With a
// tracer it is wrapped in the benchmark's handler span; sampled limits the
// spans to ops whose id is a multiple of it (1 records every op).
func echoHandler(tr *tracer, sampled uint64) faas.Handler {
	echo := func(ctx *faas.Ctx, payload []byte) ([]byte, error) { return payload, nil }
	if tr == nil {
		return echo
	}
	return func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		op := stampedOp(payload)
		if op%sampled != 0 {
			return payload, nil
		}
		t0 := time.Now()
		out, err := echo(ctx, payload)
		tr.add(kHandler, op, t0, time.Now())
		return out, err
	}
}

// gwFixture is one round's front door: a platform, its gateway served on a
// loopback listener, and one gateway.Client per load-generator worker, each
// on its own keep-alive connection.
type gwFixture struct {
	p       *core.Platform
	srv     *http.Server
	served  chan struct{}
	clients []*gwClient
	counts  *serverCounts // nil unless traced
}

type gwClient struct {
	*gateway.Client
	transport *http.Transport
	stamper   *stampTransport // nil unless traced
}

// setOp names the op the client's next HTTP requests belong to.
func (c *gwClient) setOp(op uint64) {
	if c.stamper != nil {
		c.stamper.op = op
	}
}

func newGateway(e env, cfg faas.Config) (*gwFixture, error) {
	p := core.New(core.Options{})
	if err := p.Tenant(benchTenant).Register("echo", echoHandler(e.tr, 1), minimalLatency(cfg)); err != nil {
		return nil, err
	}
	gw := gateway.New(p, gateway.Config{Tokens: map[string]string{benchToken: benchTenant}})
	fx := &gwFixture{p: p, served: make(chan struct{})}
	var h http.Handler = gw
	if e.tr != nil {
		fx.counts = &serverCounts{}
		h = &spanHandler{next: gw, tr: e.tr, counts: fx.counts}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fx.srv = &http.Server{Handler: h}
	go func() {
		_ = fx.srv.Serve(ln) // returns ErrServerClosed on close()
		close(fx.served)
	}()
	for i := 0; i < e.clients; i++ {
		c := &gwClient{transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		var rt http.RoundTripper = c.transport
		if e.tr != nil {
			c.stamper = &stampTransport{next: c.transport, tr: e.tr}
			rt = c.stamper
		}
		c.Client = &gateway.Client{BaseURL: "http://" + ln.Addr().String(), Token: benchToken, HTTP: &http.Client{Transport: rt}}
		fx.clients = append(fx.clients, c)
	}
	return fx, nil
}

// close stops the server and waits for its accept loop to end.
func (fx *gwFixture) close() {
	_ = fx.srv.Close()
	<-fx.served
	for _, c := range fx.clients {
		c.transport.CloseIdleConnections()
	}
}

// stampTransport is the benchmark's http.RoundTripper: it stamps the op id
// on the request and spans RoundTrip. One worker owns it, so op needs no lock.
type stampTransport struct {
	next http.RoundTripper
	tr   *tracer
	op   uint64
}

func (s *stampTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req.Header.Set(opHeader, strconv.FormatUint(s.op, 10))
	t0 := time.Now()
	resp, err := s.next.RoundTrip(req)
	s.tr.add(kTransport, s.op, t0, time.Now())
	return resp, err
}

// serverCounts are taken at the ServeHTTP boundary of a traced round.
type serverCounts struct {
	requests, bytesIn, bytesOut atomic.Int64
}

// spanHandler is the benchmark's http.Handler wrapper around the gateway.
type spanHandler struct {
	next   http.Handler
	tr     *tracer
	counts *serverCounts
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
	cw := &countingWriter{ResponseWriter: w}
	t0 := time.Now()
	h.next.ServeHTTP(cw, r)
	h.tr.add(kServer, op, t0, time.Now())
	if h.tr.on.Load() { // like the spans, the counts leave the warm-up out
		h.counts.requests.Add(1)
		h.counts.bytesIn.Add(max(r.ContentLength, 0))
		h.counts.bytesOut.Add(cw.n)
	}
}

// countingWriter counts response body bytes and keeps the gateway's chunked
// streaming working by passing Flush through.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// reconcileFaaS reads the function's counters and the tenant's bill back
// through the public API: every executed op was counted once and billed
// once, and none was throttled. It also files them as layer metrics.
func reconcileFaaS(r *roundResult, p *core.Platform, executed int64) {
	t := p.Tenant(benchTenant)
	st, err := t.Stats("echo")
	if err != nil {
		r.fail(1, "stats: %v", err)
		return
	}
	var billed float64
	for _, line := range t.Invoice().Lines {
		if line.Resource == billing.ResInvocationReqs {
			billed = line.Units
		}
	}
	r.reconcile("faas Stats.Invocations", st.Invocations, executed)
	r.reconcile("billed invocations", int64(billed), executed)
	r.reconcile("faas Stats.Throttles", st.Throttles, 0)
	r.layer["faas.invocations"] = float64(st.Invocations)
	r.layer["faas.throttles"] = float64(st.Throttles)
	r.layer["billing.invocations_billed"] = billed
	if st.Invocations > 0 {
		r.layer["faas.cold_ratio"] = float64(st.ColdStarts) / float64(st.Invocations)
	}
}

// fileServerCounts turns the traced round's boundary counts into layer
// metrics.
func (fx *gwFixture) fileServerCounts(r *roundResult) {
	if fx.counts == nil {
		return
	}
	r.layer["gateway.requests"] = float64(fx.counts.requests.Load())
	r.layer["gateway.bytes_in"] = float64(fx.counts.bytesIn.Load())
	r.layer["gateway.bytes_out"] = float64(fx.counts.bytesOut.Load())
}

// gwEchoRound is the closed-loop gateway workload: every client calls
// Client.Invoke("echo", 64 B) back to back and checks the bytes returned.
func gwEchoRound(e env) (roundResult, error) {
	r := roundResult{layer: map[string]float64{}}
	t0 := time.Now()
	n := e.size(gwEchoOps, e.clients)
	fx, err := newGateway(e, faas.Config{})
	if err != nil {
		return r, err
	}
	defer fx.close()
	pattern := gen.Payload(64, e.roundSeed())

	// loop runs ops [base, base+total) split over the clients, and returns
	// how many ran and how many of them failed. The warm-up has a nil lat and
	// stops at its deadline.
	rates := make([][]float64, len(fx.clients))
	loop := func(base uint64, total int, lat []float64, deadline time.Time) (int64, int64) {
		var ran, failed atomic.Int64
		var wg sync.WaitGroup
		for w := range fx.clients {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := fx.clients[w]
				payload := append([]byte(nil), pattern...)
				chunkStart, done := time.Now(), 0
				for i := w; i < total && (lat != nil || time.Now().Before(deadline)); i += len(fx.clients) {
					op := base + uint64(i)
					ran.Add(1)
					stamp(payload, op)
					c.setOp(op)
					sent := time.Now()
					res, err := c.Invoke("echo", payload)
					back := time.Now()
					if err != nil || !bytes.Equal(res.Output, payload) {
						failed.Add(1)
					}
					if lat != nil {
						lat[i] = float64(back.Sub(sent))
						e.tr.add(kClient, op, sent, back)
						if done++; done%gwEchoChunk == 0 {
							rates[w] = append(rates[w], gwEchoChunk/back.Sub(chunkStart).Seconds())
							chunkStart = back
						}
					}
				}
			}(w)
		}
		wg.Wait()
		return ran.Load(), failed.Load()
	}

	warm, f := loop(1<<40, 1<<30, nil, time.Now().Add(warmupFor))
	if f > 0 {
		return r, fmt.Errorf("gw-echo: %d of %d warm-up ops failed", f, warm)
	}
	r.lat = make([]float64, n)
	e.tr.start()
	m := r.begin(t0)
	_, failed := loop(0, n, r.lat, time.Time{})
	r.end(m)
	for _, rs := range rates {
		r.chunkRates = append(r.chunkRates, rs...)
	}
	r.loopClients = len(fx.clients)
	r.attempted = n
	if failed > 0 {
		r.fail(int(failed), "%d ops errored or returned the wrong bytes", failed)
	}
	reconcileFaaS(&r, fx.p, warm+int64(n))
	fx.fileServerCounts(&r)
	return r, nil
}

// Op kinds of gw-mixed.
const (
	opFresh  = iota // 64 B echo under a fresh Idempotency-Key
	opReplay        // re-send of an earlier key: must be answered from the dedup window
	opBig           // 64 KiB echo: the chunked streaming path
	opAsync         // InvokeAsync + poll until terminal
)

const (
	gridStep     = 10 * time.Millisecond
	gridBursts   = 210 // per round at the nominal -seconds, on both open-loop workloads
	mixedBurst   = 10  // ops due at each grid instant
	mixedWarm    = 10  // warm-up bursts, on the same grid as the timed ones
	maxAsyncPoll = 10_000
	// asyncPollPause is what a client waits before each poll of an async
	// invocation (≈1.1 ms on this machine's timer). Polling in a busy loop,
	// the number of polls — a round trip and ≈100 allocations each — followed
	// the scheduler: 1.36 a op quiet, more in a slow stretch.
	asyncPollPause = 200 * time.Microsecond
	bigPayload     = 64 << 10
)

type mixedOp struct {
	kind uint8
	key  string // Idempotency-Key (fresh and replay)
	orig uint64 // replay: the op whose key and bytes are re-sent
}

// mixedOps generates warm-up and timed bursts with one generator, so a
// timed replay can reach back into the warm-up. Each burst is a seeded
// shuffle of 6 fresh, 1 replay, 1 big and 2 async ops. A replay re-sends
// the key and bytes of a fresh op of the previous burst.
func mixedOps(rng *rand.Rand, round, bursts int) []mixedOp {
	kinds := make([]uint8, 0, mixedBurst)
	for kind, count := range [...]int{opFresh: 6, opReplay: 1, opBig: 1, opAsync: 2} {
		for i := 0; i < count; i++ {
			kinds = append(kinds, uint8(kind))
		}
	}
	ops := make([]mixedOp, 0, bursts*mixedBurst)
	fresh := make([][]uint64, bursts) // per burst, the ops that stored a key
	for b := 0; b < bursts; b++ {
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, kind := range kinds {
			op := mixedOp{kind: kind}
			id := uint64(len(ops))
			if kind == opReplay && b == 0 {
				op.kind = opFresh // nothing to replay yet (warm-up only)
			}
			switch op.kind {
			case opFresh:
				op.key = fmt.Sprintf("r%d-%d", round, id)
				fresh[b] = append(fresh[b], id)
			case opReplay:
				from := fresh[b-1]
				op.orig = from[rng.Intn(len(from))]
				op.key = ops[op.orig].key
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// gwMixedRound is the open-loop gateway workload. Every gridStep a burst of
// mixedBurst ops becomes due; the dispatcher sleeps to the grid instant and
// hands the burst to the workers; latency runs from the due instant, so
// time an op spent waiting behind a stall is counted.
func gwMixedRound(e env) (roundResult, error) {
	r := roundResult{layer: map[string]float64{}}
	t0 := time.Now()
	bursts := e.size(gridBursts, 1)
	fx, err := newGateway(e, faas.Config{DedupWindow: time.Minute})
	if err != nil {
		return r, err
	}
	defer fx.close()
	rng := rand.New(rand.NewSource(e.roundSeed()))
	pattern := make([]byte, bigPayload)
	rng.Read(pattern)
	ops := mixedOps(rng, e.round, mixedWarm+bursts)
	const warm = mixedWarm * mixedBurst
	n := bursts * mixedBurst

	var (
		start   time.Time // set before the first timed op is queued
		failed  atomic.Int64
		polls   atomic.Int64
		pending sync.WaitGroup
		workers sync.WaitGroup
	)
	r.lat = make([]float64, n)
	r.queueWait = make([]float64, n)
	// A replay waits for its original to have finished: a dedup window only
	// covers finished invocations, and a worker stalled on the original can
	// be overtaken by a whole burst.
	finished := make([]atomic.Bool, len(ops))
	// Sized for every op of the round, so the dispatcher never blocks on a
	// slow worker: an open loop keeps its schedule.
	queue := make(chan int, len(ops))
	for _, c := range fx.clients {
		workers.Add(1)
		go func(c *gwClient) {
			defer workers.Done()
			small := append([]byte(nil), pattern[:64]...)
			big := append([]byte(nil), pattern...)
			for idx := range queue {
				picked := time.Now()
				ok, np := c.mixedOp(ops, finished, idx, small, big)
				done := time.Now()
				finished[idx].Store(true)
				if !ok {
					failed.Add(1)
				}
				if j := idx - warm; j >= 0 {
					due := start.Add(time.Duration(j/mixedBurst) * gridStep)
					r.lat[j] = float64(done.Sub(due))
					r.queueWait[j] = float64(picked.Sub(due))
					polls.Add(int64(np))
					e.tr.add(kClient, uint64(idx), picked, done)
				}
				pending.Done()
			}
		}(c)
	}
	stop := func() { close(queue); workers.Wait() }
	// release hands bursts [first, first+count) to the workers on the grid
	// that starts at t0. The warm-up is paced like the timed phase: it warms
	// what the timed phase uses, and set-up time is then the schedule's, not
	// the host's speed regime's (see calibrate.go).
	release := func(t0 time.Time, first, count int, late []float64) {
		for b := 0; b < count; b++ {
			due := t0.Add(time.Duration(b) * gridStep)
			time.Sleep(time.Until(due))
			if late != nil {
				late[b] = float64(time.Since(due))
			}
			for i := 0; i < mixedBurst; i++ {
				queue <- (first+b)*mixedBurst + i
			}
		}
	}

	pending.Add(warm)
	release(time.Now(), 0, mixedWarm, nil)
	pending.Wait()
	if f := failed.Load(); f > 0 {
		stop()
		return r, fmt.Errorf("gw-mixed: %d of %d warm-up ops failed", f, warm)
	}

	e.tr.start()
	m := r.begin(t0)
	start = m.t0
	pending.Add(n)
	r.late = make([]float64, bursts)
	release(start, mixedWarm, bursts, r.late)
	pending.Wait()
	r.end(m)
	stop()

	r.attempted = n
	if f := failed.Load(); f > 0 {
		r.fail(int(f), "%d ops errored or failed their check", f)
	}
	// Dedup hits never reach the function, so they are neither counted nor
	// billed; everything else is, the warm-up included.
	hits, timedHits := int64(0), int64(0)
	for idx, op := range ops {
		if op.kind == opReplay {
			hits++
			if idx >= warm {
				timedHits++
			}
		}
	}
	reconcileFaaS(&r, fx.p, int64(len(ops))-hits)
	r.layer["faas.dedup_hit_ratio"] = float64(timedHits) / float64(n)
	fx.fileServerCounts(&r)
	r.layer["gateway.async_polls_per_op"] = float64(polls.Load()) / float64(bursts*2)
	r.layer["gateway.heap_kb_per_kop"] = (float64(r.heapEnd) - float64(r.heapStart)) / 1024 / (float64(n) / 1000)
	return r, nil
}

// mixedOp runs op idx and checks its output. np is the number of polls an
// async op needed.
func (c *gwClient) mixedOp(ops []mixedOp, finished []atomic.Bool, idx int, small, big []byte) (ok bool, np int) {
	op := ops[idx]
	c.setOp(uint64(idx))
	switch op.kind {
	case opFresh:
		stamp(small, uint64(idx))
		res, err := c.InvokeIdem("echo", op.key, small)
		return err == nil && !res.Deduped && bytes.Equal(res.Output, small), 0
	case opReplay:
		for !finished[op.orig].Load() {
			runtime.Gosched()
		}
		stamp(small, op.orig) // a true retry: the original's key and bytes
		res, err := c.InvokeIdem("echo", op.key, small)
		return err == nil && res.Deduped && bytes.Equal(res.Output, small), 0
	case opBig:
		stamp(big, uint64(idx))
		res, err := c.Invoke("echo", big)
		return err == nil && bytes.Equal(res.Output, big), 0
	}
	stamp(small, uint64(idx))
	id, err := c.InvokeAsync("echo", small)
	if err != nil {
		return false, 0
	}
	for np = 1; np <= maxAsyncPoll; np++ {
		time.Sleep(asyncPollPause)
		st, err := c.Invocation(id)
		if err != nil {
			return false, np
		}
		if st.Status != "pending" {
			return st.Status == "succeeded" && bytes.Equal(st.Output, small), np
		}
	}
	return false, np
}
