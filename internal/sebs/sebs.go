// Package sebs is a SeBS-style end-to-end benchmark suite (after
// "SeBS: A Serverless Benchmark Suite", arXiv 2012.14132): representative
// serverless applications driven through the real HTTP gateway — register
// over REST, invoke over REST, read the bill over REST — rather than through
// in-process calls. The suite reports, per application, p50/p95/p99 latency,
// billed cost per 1k invocations, and cold-start fraction.
//
// Everything runs on the virtual clock, so the report is deterministic: the
// latency figures are exact simulated durations carried back in the
// gateway's X-Taureau-Result header (wall time never enters them), cold starts
// are forced at fixed points by sleeping past the keep-alive between bursts,
// and billing is the platform meter priced by the default pricing table.
// The HTTP transport is real (a live TCP listener, real request parsing);
// only time is simulated.
//
// Each run owns its HTTP: an http.Server on a fresh 127.0.0.1 port and one
// http.Transport its clients share, never http.DefaultTransport. Both are
// torn down before Run returns, on every path: every connection is closed,
// the server's handler dropped and the transport's idle connections closed,
// so nothing net/http still holds — a connection goroutine unwinding, a
// pooled connection — reaches the run's gateway, platform or virtual clock.
package sebs

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/gateway"
	"repro/internal/kvdb"
	"repro/internal/mlserve"
	"repro/internal/video"
)

// Config sizes a suite run. The zero value runs every app with the default
// closed-loop depth.
type Config struct {
	// Requests per app. Default 40.
	Requests int
	// ColdEvery inserts a keep-alive-exceeding idle gap before every
	// ColdEvery-th request, forcing a deterministic cold-start pattern
	// (request 0 plus each gap). 0 uses the default of 10; negative
	// disables forced gaps (only request 0 is cold).
	ColdEvery int
	// Apps filters the suite to these app names. Empty runs all.
	Apps []string
}

// AppReport is one application's end-to-end figures.
type AppReport struct {
	App          string  `json:"app"`
	Requests     int     `json:"requests"`
	Errors       int     `json:"errors"`
	ColdStarts   int     `json:"cold_starts"`
	ColdFraction float64 `json:"cold_fraction"`
	P50Ms        float64 `json:"p50_ms"`
	P95Ms        float64 `json:"p95_ms"`
	P99Ms        float64 `json:"p99_ms"`
	// BilledCostUSD is the tenant's full invoice for the run: invocation
	// GB-seconds plus whatever BaaS the app touched (blob, database).
	BilledCostUSD float64 `json:"billed_cost_usd"`
	CostPer1kUSD  float64 `json:"billed_cost_per_1k_usd"`
}

// Report is the suite's JSON output.
type Report struct {
	Suite          string      `json:"suite"`
	Transport      string      `json:"transport"`
	VirtualClock   bool        `json:"virtual_clock"`
	RequestsPerApp int         `json:"requests_per_app"`
	Apps           []AppReport `json:"apps"`
}

// app is one suite member: its wire spec, a setup hook that provisions
// backing state and returns the handler (run inside the virtual clock), and
// a deterministic payload generator.
type app struct {
	name  string
	spec  gateway.FunctionSpec
	setup func(p *core.Platform) (faas.Handler, func(i int) []byte, error)
}

func tenantOf(appName string) string { return "sebs-" + appName }
func tokenOf(appName string) string  { return "tok-" + appName }

// suite returns the full app roster.
func suite() []app {
	return []app{
		{name: "webapp", spec: specOf("webapp"), setup: setupWebapp},
		{name: "mlserve", spec: specOf("mlserve"), setup: setupMLServe},
		{name: "graphrank", spec: specOf("graphrank"), setup: setupGraphRank},
		{name: "video", spec: specOf("video"), setup: setupVideo},
	}
}

// specOf is an app's wire spec. Every app shares lifecycle constants chosen
// so the forced-cold pattern is unambiguous: keep-alive 60s (gaps sleep
// 61s), cold start 200ms, warm start 1ms.
func specOf(name string) gateway.FunctionSpec {
	return gateway.FunctionSpec{
		Name:        name,
		Handler:     "sebs-" + name,
		MemoryMB:    256,
		TimeoutMs:   30_000,
		KeepAliveMs: 60_000,
		ColdStartMs: 200,
		WarmStartMs: 1,
	}
}

// setupWebapp is a product-page render: one indexed database read plus one
// blob asset fetch per request, then a fixed render cost.
func setupWebapp(p *core.Platform) (faas.Handler, func(int) []byte, error) {
	tenant := tenantOf("webapp")
	if err := p.Blob.CreateBucket("sebs-assets", tenant); err != nil {
		return nil, nil, err
	}
	if err := p.DB.CreateTable("sebs-products", tenant, "category"); err != nil {
		return nil, nil, err
	}
	cats := []string{"tools", "books", "garden", "games"}
	for i := 0; i < 16; i++ {
		pk := fmt.Sprintf("p%02d", i)
		row := map[string]string{"name": "product " + pk, "category": cats[i%len(cats)]}
		if err := p.DB.RunTxn(func(tx *kvdb.Txn) error { return tx.Put("sebs-products", pk, row) }); err != nil {
			return nil, nil, err
		}
		asset := make([]byte, 4<<10)
		for j := range asset {
			asset[j] = byte(i + j)
		}
		if _, err := p.Blob.Put("sebs-assets", pk+".png", asset, blob.PutOptions{}); err != nil {
			return nil, nil, err
		}
	}
	handler := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		pk := string(payload)
		var category string
		err := p.DB.RunTxn(func(tx *kvdb.Txn) error {
			row, ok, err := tx.Get("sebs-products", pk)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("webapp: no product %q", pk)
			}
			category = row["category"]
			return nil
		})
		if err != nil {
			return nil, err
		}
		asset, _, err := p.Blob.Get("sebs-assets", pk+".png")
		if err != nil {
			return nil, err
		}
		ctx.Work(2 * time.Millisecond) // template render
		return json.Marshal(map[string]any{
			"product": pk, "category": category, "asset_bytes": len(asset),
		})
	}
	payload := func(i int) []byte { return []byte(fmt.Sprintf("p%02d", i%16)) }
	return handler, payload, nil
}

// setupMLServe is inference serving: load published weights from blob (with
// the shared model cache), score a feature vector with a logistic model.
func setupMLServe(p *core.Platform) (faas.Handler, func(int) []byte, error) {
	tenant := tenantOf("mlserve")
	if err := p.Blob.CreateBucket("sebs-models", tenant); err != nil {
		return nil, nil, err
	}
	ms := mlserve.NewModelStore(p.Blob, "sebs-models")
	const dim = 256
	if err := ms.Publish("clf", mlserve.RandomVector(dim, 7)); err != nil {
		return nil, nil, err
	}
	handler := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		var req mlserve.InferRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		w, err := ms.Load("clf", true)
		if err != nil {
			return nil, err
		}
		if len(req.Features) != len(w) {
			return nil, fmt.Errorf("mlserve: feature dim %d != model dim %d", len(req.Features), len(w))
		}
		var z float64
		for i, f := range req.Features {
			z += f * w[i]
		}
		ctx.Work(2 * time.Millisecond) // inference cost
		prob := 1 / (1 + math.Exp(-z))
		label := 0
		if prob >= 0.5 {
			label = 1
		}
		return json.Marshal(mlserve.InferResponse{Probability: prob, Label: label})
	}
	payload := func(i int) []byte {
		features := mlserve.RandomVector(dim, int64(100+i))
		b, _ := json.Marshal(mlserve.InferRequest{Features: features})
		return b
	}
	return handler, payload, nil
}

// setupGraphRank is CPU-bound analytics: a power-iteration rank over a small
// deterministic graph, with work proportional to edges×iterations.
func setupGraphRank(p *core.Platform) (faas.Handler, func(int) []byte, error) {
	const n, iters = 64, 10
	handler := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		var req struct {
			Seed int `json:"seed"`
		}
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		// Ring plus seed-dependent chords; out-degree 2 everywhere.
		adj := make([][]int, n)
		for i := range adj {
			adj[i] = []int{(i + 1) % n, (i + 3 + req.Seed%7) % n}
		}
		rank := make([]float64, n)
		next := make([]float64, n)
		for i := range rank {
			rank[i] = 1.0 / n
		}
		for it := 0; it < iters; it++ {
			for i := range next {
				next[i] = 0.15 / n
			}
			for i, out := range adj {
				share := 0.85 * rank[i] / float64(len(out))
				for _, j := range out {
					next[j] += share
				}
			}
			rank, next = next, rank
			ctx.Work(500 * time.Microsecond) // per-iteration compute
		}
		best, bestRank := 0, rank[0]
		for i, r := range rank {
			if r > bestRank {
				best, bestRank = i, r
			}
		}
		return json.Marshal(map[string]any{"top_node": best, "rank": bestRank})
	}
	payload := func(i int) []byte {
		b, _ := json.Marshal(map[string]int{"seed": i})
		return b
	}
	return handler, payload, nil
}

// setupVideo is chunked video encoding (the ExCamera workload): each request
// encodes one 12-frame GOP of a synthetic clip, paying per-frame costs from
// the default software-encoder model.
func setupVideo(p *core.Platform) (faas.Handler, func(int) []byte, error) {
	clip := video.Synthetic(48, 12, 3)
	cost := video.DefaultCost()
	const chunk = 12
	chunks := (len(clip.Frames) + chunk - 1) / chunk
	handler := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		var req struct {
			Chunk int `json:"chunk"`
		}
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		start := (req.Chunk % chunks) * chunk
		end := start + chunk
		if end > len(clip.Frames) {
			end = len(clip.Frames)
		}
		bytesOut := 0
		for i := start; i < end; i++ {
			f := clip.Frames[i]
			d := time.Duration(float64(cost.PerFrame) * f.Complexity)
			b := float64(cost.BytesPerFrame) * f.Complexity
			if f.KeyFrame || i == start {
				d = time.Duration(float64(d) * cost.KeyFrameFactor)
				b *= cost.KeyFrameFactor
			}
			ctx.Work(d)
			bytesOut += int(b)
		}
		return json.Marshal(map[string]int{"frames": end - start, "bytes": bytesOut})
	}
	payload := func(i int) []byte {
		b, _ := json.Marshal(map[string]int{"chunk": i % chunks})
		return b
	}
	return handler, payload, nil
}

// Run executes the suite: boot a virtual-clock platform, serve the gateway
// on a real listener, and drive each app through HTTP in a closed loop.
func Run(cfg Config) (Report, error) { return run(cfg, suite()) }

// run is Run over a given roster.
func run(cfg Config, roster []app) (Report, error) {
	if cfg.Requests <= 0 {
		cfg.Requests = 40
	}
	if cfg.ColdEvery == 0 {
		cfg.ColdEvery = 10
	}
	apps, err := pick(roster, cfg.Apps)
	if err != nil {
		return Report{}, err
	}

	p, v := core.NewVirtual(core.Options{})
	defer p.Close()
	exec := gateway.NewInProc()
	tokens := make(map[string]string, len(apps))
	for _, a := range apps {
		tokens[tokenOf(a.name)] = tenantOf(a.name)
	}
	lb, err := listen(gateway.New(p, gateway.Config{Tokens: tokens, Executor: exec}))
	if err != nil {
		return Report{}, err
	}
	defer lb.close()

	rep := Report{
		Suite:          "sebs",
		Transport:      "http",
		VirtualClock:   true,
		RequestsPerApp: cfg.Requests,
	}
	var runErr error
	v.Run(func() {
		for _, a := range apps {
			h, payload, err := a.setup(p)
			if err != nil {
				runErr = fmt.Errorf("sebs: %s setup: %w", a.name, err)
				return
			}
			exec.Bind(a.spec.Handler, h)
			c := &gateway.Client{BaseURL: lb.url, Token: tokenOf(a.name), HTTP: lb.client, Block: v.Outside}
			if err := c.Register(a.spec); err != nil {
				runErr = fmt.Errorf("sebs: %s register: %w", a.name, err)
				return
			}
			gap := time.Duration(a.spec.KeepAliveMs)*time.Millisecond + time.Second
			var lats []time.Duration
			colds, errors := 0, 0
			for i := 0; i < cfg.Requests; i++ {
				if i > 0 && cfg.ColdEvery > 0 && i%cfg.ColdEvery == 0 {
					p.Clock.Sleep(gap) // idle past keep-alive: next invoke is cold
				}
				res, err := c.Invoke(a.spec.Name, payload(i))
				if err != nil {
					errors++
					continue
				}
				lats = append(lats, res.Latency)
				if res.Cold {
					colds++
				}
			}
			rep.Apps = append(rep.Apps, summarize(a.name, cfg.Requests, lats, colds, errors))
		}
	})
	v.Close()
	if runErr != nil {
		return Report{}, runErr
	}

	// Price each app's tenant after the run; every app has its own tenant,
	// so the invoice isolates its full footprint (compute + BaaS).
	for i := range rep.Apps {
		inv := p.Tenant(tenantOf(rep.Apps[i].App)).Invoice()
		rep.Apps[i].BilledCostUSD = round6(inv.Total)
		if rep.Apps[i].Requests > 0 {
			rep.Apps[i].CostPer1kUSD = round6(inv.Total * 1000 / float64(rep.Apps[i].Requests))
		}
	}
	return rep, nil
}

// pick returns the roster's apps named in names, in roster order, or the
// whole roster when names is empty. A name the roster lacks is an error.
func pick(roster []app, names []string) ([]app, error) {
	if len(names) == 0 {
		return roster, nil
	}
	known := make([]string, len(roster))
	for i, a := range roster {
		known[i] = a.name
	}
	var unknown []string
	for _, n := range names {
		if !slices.Contains(known, n) {
			unknown = append(unknown, n)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("sebs: unknown apps %q (the suite has %s)", unknown, strings.Join(known, ", "))
	}
	var kept []app
	for _, a := range roster {
		if slices.Contains(names, a.name) {
			kept = append(kept, a)
		}
	}
	return kept, nil
}

// loopback is the one HTTP server a run serves its gateway on, and the one
// transport its clients dial it through. Both belong to the run, and close
// tears them down before Run returns.
type loopback struct {
	url    string
	client *http.Client
	srv    *http.Server
	served chan struct{}  // closed when Serve has returned
	conns  sync.WaitGroup // the server's connections not yet closed
}

// listen serves h on a fresh 127.0.0.1 port.
func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("sebs: listen: %w", err)
	}
	lb := &loopback{
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{}},
		served: make(chan struct{}),
	}
	lb.srv = &http.Server{Handler: h, ConnState: func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			lb.conns.Add(1)
		case http.StateClosed, http.StateHijacked:
			lb.conns.Done()
		}
	}}
	go func() {
		// ErrServerClosed once close has begun; an earlier failure surfaces
		// as the run's first failed request.
		_ = lb.srv.Serve(ln)
		close(lb.served)
	}()
	return lb, nil
}

// close ends the run's HTTP; no request is in flight when it is called. It
// closes the listener and every connection, waits for Serve to return and
// for each connection's goroutine to report itself closed — which orders
// every handler call before what follows — and only then drops the server's
// handler: a connection goroutine still unwinding keeps the server, and
// through its handler the gateway, platform and virtual clock, reachable.
// Last, the transport closes the idle connections it still pools.
//
// Not Shutdown: it polls for idle connections on a 1 ms ticker, so a
// connection still finishing its last response costs a run a millisecond,
// and one the transport dialed but never used holds it for 5 s.
func (lb *loopback) close() {
	lb.srv.Close()
	<-lb.served
	lb.conns.Wait()
	lb.srv.Handler = nil
	lb.client.CloseIdleConnections()
}

func summarize(name string, requests int, lats []time.Duration, colds, errors int) AppReport {
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pct := func(q float64) float64 {
		if len(sorted) == 0 {
			return 0
		}
		idx := int(math.Ceil(q*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		return round3(float64(sorted[idx]) / float64(time.Millisecond))
	}
	r := AppReport{
		App:        name,
		Requests:   requests,
		Errors:     errors,
		ColdStarts: colds,
		P50Ms:      pct(0.50),
		P95Ms:      pct(0.95),
		P99Ms:      pct(0.99),
	}
	if len(lats) > 0 {
		r.ColdFraction = round3(float64(colds) / float64(len(lats)))
	}
	return r
}

func round3(f float64) float64 { return math.Round(f*1e3) / 1e3 }
func round6(f float64) float64 { return math.Round(f*1e6) / 1e6 }
