package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/billing"
	"repro/internal/blob"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/gateway"
	"repro/internal/jiffy"
	"repro/internal/kvdb"
	"repro/internal/obs"
	"repro/internal/pulsar"
	"repro/internal/simclock"
	gen "repro/internal/workload"
)

// rungReps is how many timed repetitions a rung reports the median of; one
// more, untimed, runs first as the warm-up.
const rungReps = 5

// rung is one isolated call into a layer's public API, timed from outside
// with nothing else running. The call counts are fixed, not the duration,
// so both sides of a comparison time identical work.
type rung struct {
	metric string  // ns per call, divided by per
	allocs string  // if set, also report heap allocations per call under this name
	calls  int     // calls per repetition at scale 1
	per    float64 // units of work in one call (16 for a 16-entry batch); 0 means 1
	// setup builds the layer and returns the call to time. total is how
	// many calls will be made in all, for rungs that must prepare inputs.
	setup func(total int) (call func() error, cleanup func(), err error)
}

// ladder times every rung and returns the layer metrics, including the two
// taxes that are differences of rungs.
func ladder(scale float64) (map[string]float64, error) {
	out := map[string]float64{}
	for _, rg := range rungs() {
		if err := rg.run(scale, out); err != nil {
			return nil, fmt.Errorf("rung %s: %w", rg.metric, err)
		}
	}
	out["obs.invoke_tax_ns"] = out["faas.invoke_ns"] - out["faas.invoke_noobs_ns"]
	out["obs.publish_tax_ns"] = out["pulsar.send_ns"] - out["pulsar.send_noobs_ns"]
	return out, nil
}

func (rg rung) run(scale float64, out map[string]float64) error {
	calls := max(int(float64(rg.calls)*scale), 4)
	call, cleanup, err := rg.setup(calls * (rungReps + 1))
	if err != nil {
		return err
	}
	defer cleanup()
	per := rg.per
	if per == 0 {
		per = 1
	}
	var ns, allocs []float64
	var ms runtime.MemStats
	for rep := 0; rep <= rungReps; rep++ {
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			if err := call(); err != nil {
				return err
			}
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&ms)
		if rep > 0 {
			ns = append(ns, float64(elapsed)/float64(calls)/per)
			allocs = append(allocs, float64(ms.Mallocs-mallocs)/float64(calls)/per)
		}
	}
	out[rg.metric] = median(ns)
	if rg.allocs != "" {
		out[rg.allocs] = median(allocs)
	}
	return nil
}

func noCleanup() {}

var errWrongOutput = errors.New("wrong output")

// echoPlatform is a platform with the echo function registered at minimal
// modelled latency.
func echoPlatform(opts core.Options, cfg faas.Config) (*core.Platform, error) {
	p := core.New(opts)
	return p, p.Tenant(benchTenant).Register("echo", echoHandler(nil, 1), minimalLatency(cfg))
}

func rungs() []rung {
	payload := gen.Payload(64, 1)

	// Gateway rungs, top down: the typed client over one connection, a raw
	// http.Client.Do against the same server, and ServeHTTP with no socket.
	overHTTP := func(call func(fx *gwFixture) func() error) func(int) (func() error, func(), error) {
		return func(int) (func() error, func(), error) {
			fx, err := newGateway(env{clients: 1}, faas.Config{})
			if err != nil {
				return nil, nil, err
			}
			return call(fx), fx.close, nil
		}
	}
	clientInvoke := func(fx *gwFixture) func() error {
		return func() error {
			res, err := fx.clients[0].Invoke("echo", payload)
			if err == nil && !bytes.Equal(res.Output, payload) {
				err = errWrongOutput
			}
			return err
		}
	}
	rawRoundTrip := func(fx *gwFixture) func() error {
		c := fx.clients[0]
		url := c.BaseURL + "/v1/functions/echo/invoke"
		return func() error {
			req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
			if err != nil {
				return err
			}
			req.Header.Set("Authorization", "Bearer "+benchToken)
			resp, err := c.HTTP.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err == nil && !bytes.Equal(body, payload) {
				err = errWrongOutput
			}
			return err
		}
	}
	serveHTTP := func(int) (func() error, func(), error) {
		p, err := echoPlatform(core.Options{}, faas.Config{})
		if err != nil {
			return nil, nil, err
		}
		gw := gateway.New(p, gateway.Config{Tokens: map[string]string{benchToken: benchTenant}})
		tmpl, err := http.NewRequest(http.MethodPost, "http://bench/v1/functions/echo/invoke", nil)
		if err != nil {
			return nil, nil, err
		}
		tmpl.Header.Set("Authorization", "Bearer "+benchToken)
		w := &memWriter{header: http.Header{}}
		return func() error {
			req := tmpl.WithContext(context.Background()) // shallow copy: the mux writes its match into the request
			req.Body = io.NopCloser(bytes.NewReader(payload))
			req.ContentLength = int64(len(payload))
			clear(w.header)
			w.status, w.n = 0, 0
			gw.ServeHTTP(w, req)
			if w.status != http.StatusOK || w.n != len(payload) {
				return fmt.Errorf("ServeHTTP: status %d, %d body bytes", w.status, w.n)
			}
			return nil
		}, noCleanup, nil
	}

	// In-process invoke rungs.
	invoke := func(opts core.Options, cfg faas.Config, via func(p *core.Platform) func() (faas.Result, error)) func(int) (func() error, func(), error) {
		return func(int) (func() error, func(), error) {
			p, err := echoPlatform(opts, cfg)
			if err != nil {
				return nil, nil, err
			}
			do := via(p)
			return func() error {
				res, err := do()
				if err == nil && !bytes.Equal(res.Output, payload) {
					err = errWrongOutput
				}
				return err
			}, noCleanup, nil
		}
	}
	viaTenant := func(p *core.Platform) func() (faas.Result, error) {
		t := p.Tenant(benchTenant)
		return func() (faas.Result, error) { return t.Invoke("echo", payload) }
	}
	viaFaaS := func(p *core.Platform) func() (faas.Result, error) {
		return func() (faas.Result, error) { return p.FaaS.InvokeFor(benchTenant, "echo", payload) }
	}
	viaIdemHit := func(p *core.Platform) func() (faas.Result, error) {
		return func() (faas.Result, error) { // the first call stores the key, every later one hits
			return p.FaaS.InvokeForTraceIdem(benchTenant, "echo", payload, obs.TraceCtx{}, "key")
		}
	}

	// Publish-path rungs.
	msg := gen.Payload(256, 1)
	send := func(opts core.Options, batched bool) func(int) (func() error, func(), error) {
		return func(int) (func() error, func(), error) {
			p := core.New(opts)
			if err := p.Pulsar.CreateTopic(streamTopic, 0); err != nil {
				return nil, nil, err
			}
			prod, err := p.Pulsar.CreateProducer(streamTopic)
			if err != nil {
				return nil, nil, err
			}
			if batched {
				return func() error { return prod.SendAsync("", msg) }, func() { _ = prod.Flush() }, nil
			}
			return func() error { _, err := prod.Send(msg); return err }, noCleanup, nil
		}
	}
	ack := func(total int) (func() error, func(), error) {
		p := core.New(core.Options{PulsarBatchMax: 16})
		if err := p.Pulsar.CreateTopic(streamTopic, 0); err != nil {
			return nil, nil, err
		}
		prod, err := p.Pulsar.CreateProducer(streamTopic)
		if err != nil {
			return nil, nil, err
		}
		cons, err := p.Pulsar.Subscribe(streamTopic, streamSub, pulsar.Shared, pulsar.Earliest)
		if err != nil {
			return nil, nil, err
		}
		msgs := make([]pulsar.Message, 0, total)
		for i := 0; i < total; i++ {
			if err := prod.SendAsync("", msg); err != nil {
				return nil, nil, err
			}
		}
		if err := prod.Flush(); err != nil {
			return nil, nil, err
		}
		for len(msgs) < total {
			m, ok := cons.Receive(time.Second)
			if !ok {
				return nil, nil, fmt.Errorf("received %d of %d messages", len(msgs), total)
			}
			msgs = append(msgs, m)
		}
		next := 0
		return func() error { next++; return cons.Ack(msgs[next-1]) }, cons.Close, nil
	}
	ledgerWriter := func(call func(p *core.Platform) (func() error, error)) func(int) (func() error, func(), error) {
		return func(int) (func() error, func(), error) {
			c, err := call(core.New(core.Options{}))
			return c, noCleanup, err
		}
	}
	entries := make([][]byte, 16)
	for i := range entries {
		entries[i] = msg
	}
	const readable = 4096 // entries in the ledger the read rung reads round robin

	// State-plane rungs: reached end to end only inside sim-sebs's webapp.
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	val := gen.Payload(128, 1)
	jiffyNS := func(prefill bool) (*jiffy.Namespace, error) {
		ctrl := jiffy.NewController(simclock.Real{}, nil, jiffy.Config{Latency: jiffy.NoLatency, DefaultLease: -1, BlockSize: 1 << 20})
		ctrl.AddNode("n0", 64)
		ns, err := ctrl.CreateNamespace("/bench", jiffy.NamespaceOptions{InitialBlocks: 8})
		for i := 0; err == nil && prefill && i < len(keys); i++ {
			err = ns.Put(keys[i], val)
		}
		return ns, err
	}
	asset := gen.Payload(4<<10, 1)

	return []rung{
		{metric: "gateway.client_ns", allocs: "gateway.client_allocs", calls: 2000, setup: overHTTP(clientInvoke)},
		{metric: "gateway.roundtrip_ns", calls: 2000, setup: overHTTP(rawRoundTrip)},
		{metric: "gateway.serve_ns", allocs: "gateway.serve_allocs", calls: 20_000, setup: serveHTTP},
		{metric: "core.tenant_invoke_ns", allocs: "core.tenant_invoke_allocs", calls: 100_000, setup: invoke(core.Options{}, faas.Config{}, viaTenant)},
		{metric: "faas.invoke_ns", calls: 100_000, setup: invoke(core.Options{}, faas.Config{}, viaFaaS)},
		{metric: "faas.invoke_noobs_ns", calls: 100_000, setup: invoke(core.Options{DisableObs: true}, faas.Config{}, viaFaaS)},
		{metric: "faas.invoke_idem_hit_ns", calls: 100_000, setup: invoke(core.Options{}, faas.Config{DedupWindow: time.Hour}, viaIdemHit)},
		{metric: "billing.add_invocation_ns", calls: 200_000, setup: func(int) (func() error, func(), error) {
			m, at := billing.NewMeter(), time.Now()
			return func() error { m.AddInvocation(benchTenant, time.Millisecond, 128, at); return nil }, noCleanup, nil
		}},
		{metric: "simclock.real_sleep_ns", calls: 200_000, setup: func(int) (func() error, func(), error) {
			return func() error { simclock.Real{}.Sleep(1); return nil }, noCleanup, nil
		}},
		// The shape of the gateway's hop onto a clock-tracked worker.
		{metric: "simclock.go_hop_ns", calls: 100_000, setup: func(int) (func() error, func(), error) {
			ch := make(chan struct{}, 1)
			return func() error { simclock.Real{}.Go(func() { ch <- struct{}{} }); <-ch; return nil }, noCleanup, nil
		}},
		// One call is a whole simulation of 4 tracked goroutines sleeping 50
		// times in lockstep: 50 timer advances. per also converts ns to µs.
		{metric: "simclock.advance_us", calls: 4, per: 50 * 1000, setup: func(int) (func() error, func(), error) {
			return func() error {
				v := simclock.NewVirtual()
				defer v.Close()
				v.Run(func() {
					var wg sync.WaitGroup
					for g := 0; g < 4; g++ {
						wg.Add(1)
						v.Go(func() {
							defer wg.Done()
							for i := 0; i < 50; i++ {
								v.Sleep(time.Millisecond)
							}
						})
					}
					v.BlockOn(wg.Wait)
				})
				if got := v.Elapsed(); got != 50*time.Millisecond {
					return fmt.Errorf("virtual clock advanced %v, want 50ms", got)
				}
				return nil
			}, noCleanup, nil
		}},
		{metric: "pulsar.send_ns", calls: 20_000, setup: send(core.Options{}, false)},
		{metric: "pulsar.send_noobs_ns", calls: 20_000, setup: send(core.Options{DisableObs: true}, false)},
		{metric: "pulsar.send_batch_ns", calls: 20_000, setup: send(core.Options{PulsarBatchMax: 16, PulsarFlushInterval: time.Hour}, true)},
		{metric: "pulsar.ack_ns", allocs: "pulsar.ack_allocs", calls: 10_000, setup: ack},
		{metric: "ledger.append_ns", calls: 50_000, setup: ledgerWriter(func(p *core.Platform) (func() error, error) {
			w, err := p.Ledgers.CreateLedger(3, 2, 2)
			return func() error { _, err := w.Append(msg); return err }, err
		})},
		{metric: "ledger.append_batch_ns", calls: 5000, per: 16, setup: ledgerWriter(func(p *core.Platform) (func() error, error) {
			w, err := p.Ledgers.CreateLedger(3, 2, 2)
			return func() error { _, err := w.AppendBatch(entries); return err }, err
		})},
		{metric: "ledger.read_ns", calls: 50_000, setup: ledgerWriter(func(p *core.Platform) (func() error, error) {
			w, err := p.Ledgers.CreateLedger(3, 2, 2)
			for i := 0; err == nil && i < readable; i++ {
				_, err = w.Append(msg)
			}
			if err == nil {
				err = w.Close()
			}
			if err != nil {
				return nil, err
			}
			rd, err := p.Ledgers.OpenReader(w.ID())
			next := int64(0)
			return func() error { next++; _, err := rd.Read(next % readable); return err }, err
		})},
		// A cursor-record-sized write: what every ack persists.
		{metric: "coord.set_ns", calls: 100_000, setup: func(int) (func() error, func(), error) {
			store := coord.NewStore(simclock.Real{})
			err := store.EnsurePath("/bench/cursor")
			data := gen.Payload(48, 1)
			return func() error { _, err := store.Set("/bench/cursor", data, coord.AnyVersion); return err }, noCleanup, err
		}},
		{metric: "jiffy.put_ns", calls: 50_000, setup: func(int) (func() error, func(), error) {
			ns, err := jiffyNS(false)
			next := 0
			return func() error { next++; return ns.Put(keys[next%len(keys)], val) }, noCleanup, err
		}},
		{metric: "jiffy.get_ns", calls: 50_000, setup: func(int) (func() error, func(), error) {
			ns, err := jiffyNS(true)
			next := 0
			return func() error { next++; _, err := ns.Get(keys[next%len(keys)]); return err }, noCleanup, err
		}},
		{metric: "kvdb.txn_rw_ns", calls: 20_000, setup: func(int) (func() error, func(), error) {
			db := kvdb.New(simclock.Real{}, nil)
			err := db.CreateTable("t", benchTenant)
			next := 0
			return func() error {
				next++
				pk := keys[next%1024]
				return db.RunTxn(func(tx *kvdb.Txn) error {
					if _, _, err := tx.Get("t", pk); err != nil {
						return err
					}
					return tx.Put("t", pk, kvdb.Row{"v": pk})
				})
			}, noCleanup, err
		}},
		{metric: "blob.put_get_ns", calls: 5000, setup: func(int) (func() error, func(), error) {
			store := blob.New(simclock.Real{}, nil, blob.LatencyModel{PerOp: 1})
			err := store.CreateBucket("b", benchTenant)
			next := 0
			return func() error {
				next++
				key := keys[next%64]
				if _, err := store.Put("b", key, asset, blob.PutOptions{}); err != nil {
					return err
				}
				_, _, err := store.Get("b", key)
				return err
			}, noCleanup, err
		}},
	}
}

// memWriter is the reusable in-memory http.ResponseWriter of the ServeHTTP
// rung: it keeps the status and counts the body, and allocates nothing.
type memWriter struct {
	header http.Header
	status int
	n      int
}

func (w *memWriter) Header() http.Header  { return w.header }
func (w *memWriter) WriteHeader(code int) { w.status = code }
func (w *memWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}
