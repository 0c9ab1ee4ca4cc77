// Package gateway is the platform's deployable front door: a versioned REST
// control/data plane over the core.Platform assembly. Callers authenticate
// with bearer tokens that map to tenant handles; every request operates
// strictly inside that tenant's namespace (cross-tenant names read as
// not-found, never forbidden, so namespaces stay unprobeable — the same
// contract core.TenantHandle enforces in-process).
//
// The API surface, v1:
//
//	POST   /v1/functions                  register (FunctionSpec body)
//	GET    /v1/functions                  list this tenant's functions
//	DELETE /v1/functions/{name}           unregister
//	POST   /v1/functions/{name}/invoke    sync invoke (raw body in, raw body out)
//	POST   /v1/functions/{name}/invoke-async   submit, 202 + id
//	GET    /v1/invocations/{id}           poll an async invocation (kept 10 min after it finishes)
//	GET    /v1/tenants/{tenant}/invoice   priced usage
//	GET    /healthz                       liveness (no auth)
//
// Every error is a JSON envelope with a machine-readable code drawn from the
// wire table in status.go; invocation metadata (cold, latency, billed
// duration — all on the platform clock, so deterministic under the virtual
// clock) travels in one structured response header, X-Taureau-Result, beside
// the output. Bodies are read once into a buffer of their declared size —
// borrowed from bodyPool by an un-keyed sync invoke, bought by every other
// request — and the output, one []byte already, goes out under its
// Content-Length in a single write. A sync invoke's state and a Client's per
// request state are pooled, so a round trip allocates of its own only what it
// hands back: the output, the response's header values, the request path.
//
// Clock discipline: gateway handlers run on net/http goroutines the virtual
// clock does not track. Each invoke therefore runs inside Clock.Join: under
// the virtual clock that is a tracked worker (its Sleeps advance virtual
// time) the handler waits for on a plain channel — an untracked wait the
// clock cannot see, which is exactly right: the HTTP goroutine takes no part
// in the clock's runnable count; under the real clock it is a plain call on
// the handler's own goroutine. Virtual-clock callers in the same process wrap
// their HTTP round-trips in Virtual.Outside (see Client.Block): the round
// trip holds virtual time still except while its Join is running, so the
// latency a client observes is exactly what the invocation slept.
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/obs"
)

// Config parameterizes a Gateway.
type Config struct {
	// Tokens maps bearer tokens to tenant names. Requests whose token is
	// absent fail 401; there is no anonymous access.
	Tokens map[string]string
	// Executor materializes FunctionSpecs. Default: NewInProc() (builtins
	// only).
	Executor *InProc
	// MaxBody bounds request bodies in bytes. Default 8 MiB.
	MaxBody int64
}

// Gateway serves the v1 REST API over one core.Platform. It is an
// http.Handler; mount it wherever (an http.Server of the caller's own, as
// the SeBS suite does, taureau gateway beside the telemetry routes, a test's
// httptest server). A server reaches its handler, and through it the
// platform, for as long as the server is reachable: a caller that outlives
// its platform clears the server's Handler once no connection can call it.
type Gateway struct {
	p       *core.Platform
	exec    *InProc
	tokens  map[string]string
	maxBody int64
	mux     *http.ServeMux

	async asyncTable
}

// New builds a Gateway over p.
func New(p *core.Platform, cfg Config) *Gateway {
	if cfg.Executor == nil {
		cfg.Executor = NewInProc()
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	g := &Gateway{
		p:       p,
		exec:    cfg.Executor,
		tokens:  cfg.Tokens,
		maxBody: cfg.MaxBody,
		async:   newAsyncTable(p.Clock.Now()),
	}
	m := http.NewServeMux()
	m.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	m.HandleFunc("POST /v1/functions", g.authed(g.handleRegister))
	m.HandleFunc("GET /v1/functions", g.authed(g.handleList))
	m.HandleFunc("DELETE /v1/functions/{name}", g.authed(g.handleDelete))
	m.HandleFunc("POST /v1/functions/{name}/invoke", g.authed(g.handleInvoke))
	m.HandleFunc("POST /v1/functions/{name}/invoke-async", g.authed(g.handleInvokeAsync))
	m.HandleFunc("GET /v1/invocations/{id}", g.authed(g.handlePoll))
	m.HandleFunc("GET /v1/tenants/{tenant}/invoice", g.authed(g.handleInvoice))
	g.mux = m
	return g
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// authed resolves the bearer token to a tenant and rejects everything else.
func (g *Gateway) authed(h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok {
			writeError(w, ErrUnauthorized)
			return
		}
		tenant, ok := g.tokens[strings.TrimSpace(tok)]
		if !ok {
			writeError(w, ErrUnauthorized)
			return
		}
		h(w, r, tenant)
	}
}

// bodyPool lends a body buffer to an un-keyed sync invoke, the one request
// whose payload has a known end: faas hands it to the handler and nowhere
// else, and by the time handleInvoke puts the buffer back the handler has
// returned (faas.Handler: valid until then) and the output, which may alias
// it, is written. A keyed invoke's output stays in the dedup window and an
// async one's payload and result outlive the request, so neither draws from
// it: a small body kept in a recycled large buffer would pin all of it.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// readBody reads the request body once, at its declared size, under the size
// cap. A declared Content-Length over the cap is refused before a byte is
// read, and one under it needs no second guard: net/http ends the body at its
// declared length. A body of unknown length is cut off by http.MaxBytesReader.
// It reads into *buf if that is large enough and leaves there the buffer to
// recycle; a caller that recycles nothing passes new([]byte). Either way the
// body's capacity is its length: what a recycled buffer holds past it (another
// tenant's bytes; buffers are not zeroed) no reslice or append can reach.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request, buf *[]byte) ([]byte, error) {
	tooLarge := func() error {
		return fmt.Errorf("%w: request body exceeds %d bytes", faas.ErrPayloadSize, g.maxBody)
	}
	if r.ContentLength > g.maxBody {
		return nil, tooLarge()
	}
	src := r.Body
	if r.ContentLength < 0 {
		src = http.MaxBytesReader(w, src, g.maxBody)
	}
	body, err := readAllSized(src, r.ContentLength, *buf)
	if cap(body) <= eagerBody {
		*buf = body // else the one it outgrew is what goes back
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, tooLarge()
		}
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return body[:len(body):len(body)], nil
}

// eagerBody is the largest declared length allocated before a byte arrives,
// and the largest buffer bodyPool keeps. A Content-Length is a claim: past
// this size the buffer follows the bytes that have actually come, so a
// stalled upload holds what it sent, not the MaxBody it announced.
const eagerBody = 1 << 20

// readAllSized reads a body into a buffer of at least its declared length
// (512 B when that is negative: unknown; eagerBody when it is larger): from,
// when one that large is passed, else a new one of exactly that size. The
// buffer grows as io.ReadAll's does, or by doubling up to the declared
// length. It stops at the declared length, which net/http's bodies reach
// together with their io.EOF, so a body up to eagerBody that keeps its word
// costs one allocation, or none, and no copy.
func readAllSized(r io.Reader, declared int64, from ...[]byte) ([]byte, error) {
	size := min(declared, eagerBody)
	if declared < 0 {
		size = 512
	}
	var b []byte
	if len(from) > 0 && int64(cap(from[0])) >= size {
		b = from[0][:0]
	} else {
		b = make([]byte, 0, size)
	}
	for {
		if int64(len(b)) == declared {
			return b, nil
		}
		if len(b) == cap(b) {
			if declared < 0 {
				b = append(b, 0)[:len(b)]
			} else {
				b = append(make([]byte, 0, min(2*int64(cap(b)), declared)), b...)
			}
		}
		end := cap(b)
		if declared >= 0 && declared < int64(end) {
			end = int(declared)
		}
		n, err := r.Read(b[len(b):end])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// maxNameLen bounds a registered function name.
const maxNameLen = 128

// maxIdemKeyLen bounds an Idempotency-Key: the dedup window holds the key,
// with its result, for the function's DedupWindow.
const maxIdemKeyLen = 256

// maxPrewarm bounds the instances a spec may provision at registration, at
// the concurrency limit a function gets by default: Register builds them
// before it returns, so an unbounded count is memory for the asking.
const maxPrewarm = 1000

// handleRegister deploys a function from its wire spec.
func (g *Gateway) handleRegister(w http.ResponseWriter, r *http.Request, tenant string) {
	body, err := g.readBody(w, r, new([]byte))
	if err != nil {
		writeError(w, err)
		return
	}
	var spec FunctionSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	if spec.Name == "" || spec.Handler == "" {
		writeError(w, fmt.Errorf("%w: name and handler are required", ErrBadRequest))
		return
	}
	// The platform labels a function "tenant/name" (autoscaler state, gauges,
	// scheduler slots); a "/" in either part would let two labels coincide.
	if strings.Contains(spec.Name, "/") || len(spec.Name) > maxNameLen {
		writeError(w, fmt.Errorf("%w: name must not contain \"/\" nor exceed %d bytes", ErrBadRequest, maxNameLen))
		return
	}
	if spec.Prewarm < 0 || spec.Prewarm > maxPrewarm {
		writeError(w, fmt.Errorf("%w: prewarm must be between 0 and %d", ErrBadRequest, maxPrewarm))
		return
	}
	h, err := g.exec.Resolve(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := g.p.Tenant(tenant).Register(spec.Name, h, spec.faasConfig()); err != nil {
		writeError(w, err)
		return
	}
	// Fields in sorted order, so the body is what a map of the two encoded.
	writeJSON(w, http.StatusCreated, struct {
		Name   string `json:"name"`
		Tenant string `json:"tenant"`
	}{spec.Name, tenant})
}

// FunctionSummary is one row of GET /v1/functions.
type FunctionSummary struct {
	Name           string `json:"name"`
	MemoryMB       int    `json:"memory_mb"`
	TimeoutMs      int64  `json:"timeout_ms"`
	KeepAliveMs    int64  `json:"keepalive_ms"`
	MaxConcurrency int    `json:"max_concurrency"`
	Prewarm        int    `json:"prewarm,omitempty"`
}

func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request, tenant string) {
	infos := g.p.Tenant(tenant).Functions()
	out := make([]FunctionSummary, 0, len(infos))
	for _, fi := range infos {
		out = append(out, FunctionSummary{
			Name:           fi.Name,
			MemoryMB:       fi.Config.MemoryMB,
			TimeoutMs:      fi.Config.Timeout.Milliseconds(),
			KeepAliveMs:    fi.Config.KeepAlive.Milliseconds(),
			MaxConcurrency: fi.Config.MaxConcurrency,
			Prewarm:        fi.Config.Prewarm,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"functions": out})
}

func (g *Gateway) handleDelete(w http.ResponseWriter, r *http.Request, tenant string) {
	if err := g.p.Tenant(tenant).Unregister(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// runInvoke executes one invocation in platform time: Clock.Join moves it
// onto a tracked goroutine under the virtual clock and runs it right here
// under the real one. Each HTTP invoke roots exactly one trace; the span
// carries tenant and function labels into the SLO/telemetry pipeline.
func (g *Gateway) runInvoke(tenant, name string, payload []byte, idemKey string) (faas.Result, error) {
	inv := invocationPool.Get().(*invocation)
	inv.g, inv.tenant, inv.name, inv.payload, inv.idemKey = g, tenant, name, payload, idemKey
	g.p.Clock.Join(inv.run)
	res, err := inv.res, inv.err
	putInvocation(inv)
	return res, err
}

// invocation is what runInvoke hands Clock.Join and what comes back, pooled,
// with its run func bound once: Join gets the same func value every time.
type invocation struct {
	g                     *Gateway
	tenant, name, idemKey string
	payload               []byte
	res                   faas.Result
	err                   error
	run                   func() // inv.invoke
}

var invocationPool = sync.Pool{New: func() any {
	inv := new(invocation)
	inv.run = inv.invoke
	return inv
}}

// putInvocation zeroes all but the bound run func, so no tenant, name, key,
// payload or result reaches whichever request draws the invocation next.
func putInvocation(inv *invocation) {
	*inv = invocation{run: inv.run}
	invocationPool.Put(inv)
}

func (inv *invocation) invoke() {
	p := inv.g.p
	var span obs.SpanRef
	var tc obs.TraceCtx
	if p.Obs != nil {
		span = p.Obs.Tracer().Start(obs.TraceCtx{}, "gateway.invoke")
		tc = span.Ctx()
	}
	inv.res, inv.err = p.FaaS.InvokeForTraceIdem(inv.tenant, inv.name, inv.payload, tc, inv.idemKey)
	if span.Active() {
		span.EndLabeled(inv.tenant, inv.name, inv.err != nil)
	}
}

// hdrResult carries a sync invoke's metadata beside the output: an RFC 8941
// dictionary of resultKeys in that order, integers bare and booleans ?0/?1,
//
//	request-id=812, attempt=1, latency-ns=1042, billed-ns=1000000, trace-id=4411, cold=?0, deduped=?0
//
// One header, because net/http charges by the header: formatted and cloned on
// the way out, parsed and — the name being no common one — canonicalised into
// a new string on the way in. The durations are platform-clock nanoseconds:
// under the virtual clock exact simulated figures, independent of wall time.
// Integers span int64, wider than RFC 8941's 15 digits: ids are counters.
const hdrResult = "X-Taureau-Result"

var resultKeys = [...]string{"request-id", "attempt", "latency-ns", "billed-ns", "trace-id", "cold", "deduped"}

const firstBoolKey = 5 // resultKeys from here on are booleans

// appendResult formats res's metadata as the value of hdrResult.
func appendResult(b []byte, res *faas.Result) []byte {
	vals := [len(resultKeys)]int64{res.RequestID, int64(res.Attempt), res.Latency.Nanoseconds(), res.Billed.Nanoseconds(), res.TraceID}
	if res.Cold {
		vals[firstBoolKey] = 1
	}
	if res.Deduped {
		vals[firstBoolKey+1] = 1
	}
	for i, key := range resultKeys {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(append(b, key...), '=')
		if i >= firstBoolKey {
			b = append(b, '?')
		}
		b = strconv.AppendInt(b, vals[i], 10)
	}
	return b
}

// parseResult decodes a value of hdrResult without allocating. Members may
// come in any order, and one under a key not in resultKeys is skipped once its
// value reads as an integer or a boolean: a field added later breaks no
// client. A value that is not a dictionary of those two types, or that lacks
// or repeats one of resultKeys or gives it the other type, does not parse.
func parseResult(s string) (InvokeResult, bool) {
	var vals [len(resultKeys)]int64
	seen := 0
	for more := true; more; {
		var member string
		member, s, more = strings.Cut(s, ",")
		key, val, _ := strings.Cut(strings.Trim(member, " \t"), "=")
		isBool := val == "?0" || val == "?1"
		if isBool {
			val = val[1:]
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil || val[0] == '+' || key == "" {
			return InvokeResult{}, false
		}
		i := slices.Index(resultKeys[:], key)
		if i < 0 {
			continue // a member newer than this client
		}
		if seen&(1<<i) != 0 || isBool != (i >= firstBoolKey) {
			return InvokeResult{}, false
		}
		seen |= 1 << i
		vals[i] = v
	}
	if seen != 1<<len(resultKeys)-1 {
		return InvokeResult{}, false
	}
	return InvokeResult{
		RequestID: vals[0], Attempt: int(vals[1]), Latency: time.Duration(vals[2]), Billed: time.Duration(vals[3]),
		TraceID: vals[4], Cold: vals[5] == 1, Deduped: vals[6] == 1,
	}, true
}

const octetStream = "application/octet-stream"

// The Content-Type every sync invoke response shares; nothing writes through it.
var valOctetStream = []string{octetStream}

// setResultHeaders writes the metadata, Content-Type and Content-Length of a
// sync invoke response (the output is one []byte, so its length is known).
// Both values are formatted into one stack buffer and converted once; each is
// a sub-string of that, held in a one-element window of one backing array:
// two allocations for the lot.
func setResultHeaders(h http.Header, res *faas.Result) {
	var buf [200]byte // 78 bytes of keys and booleans, six int64s of at most 20 each
	b := appendResult(buf[:0], res)
	n := len(b)
	b = strconv.AppendInt(b, int64(len(res.Output)), 10)
	all, vals := string(b), make([]string, 2)
	vals[0], vals[1] = all[:n], all[n:]
	h[hdrResult], h["Content-Length"] = vals[0:1:1], vals[1:2:2]
	h["Content-Type"] = valOctetStream
}

// handleInvoke gives the body its owner: the key, read before a body byte,
// decides whether the buffer is bodyPool's or the request's own.
func (g *Gateway) handleInvoke(w http.ResponseWriter, r *http.Request, tenant string) {
	idemKey := r.Header.Get("Idempotency-Key")
	if len(idemKey) > maxIdemKeyLen {
		writeError(w, fmt.Errorf("%w: Idempotency-Key must not exceed %d bytes", ErrBadRequest, maxIdemKeyLen))
		return
	}
	buf := new([]byte) // on the stack: only lent reaches Put
	if idemKey == "" {
		lent := bodyPool.Get().(*[]byte)
		defer bodyPool.Put(lent) // after the response is written, error envelope or output
		buf = lent
	}
	payload, err := g.readBody(w, r, buf)
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := g.runInvoke(tenant, r.PathValue("name"), payload, idemKey)
	if err != nil {
		writeError(w, err)
		return
	}
	setResultHeaders(w.Header(), &res)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(res.Output) // an error means the client went away
}

func (g *Gateway) handleInvokeAsync(w http.ResponseWriter, r *http.Request, tenant string) {
	payload, err := g.readBody(w, r, new([]byte))
	if err != nil {
		writeError(w, err)
		return
	}
	name := r.PathValue("name")
	id := g.async.submit(tenant, name)
	// InvokeAsyncFor spawns its own clock-tracked goroutine and applies the
	// platform's transparent retry; the callback lands on that goroutine.
	g.p.FaaS.InvokeAsyncFor(tenant, name, payload, func(res faas.Result, err error) {
		g.async.finish(id, res, err, g.p.Clock.Now())
	})
	var buf [24]byte // "inv-" and up to 19 digits
	writeJSON(w, http.StatusAccepted, struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}{string(formatInvID(buf[:0], id)), "pending"})
}

// InvocationStatus is the poll response for one async invocation.
type InvocationStatus struct {
	ID        string     `json:"id"`
	Function  string     `json:"function"`
	Status    string     `json:"status"`           // pending | succeeded | failed
	Output    []byte     `json:"output,omitempty"` // base64 in JSON
	Error     *ErrorBody `json:"error,omitempty"`
	Cold      bool       `json:"cold,omitempty"`
	LatencyNs int64      `json:"latency_ns,omitempty"`
	BilledNs  int64      `json:"billed_ns,omitempty"`
	Attempt   int        `json:"attempt,omitempty"`
}

func (g *Gateway) handlePoll(w http.ResponseWriter, r *http.Request, tenant string) {
	id := r.PathValue("id")
	st, ok := g.async.poll(id, tenant, g.p.Clock.Now())
	if !ok {
		writeError(w, fmt.Errorf("%w: %s", ErrNoInvocation, id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (g *Gateway) handleInvoice(w http.ResponseWriter, r *http.Request, tenant string) {
	want := r.PathValue("tenant")
	if want != tenant {
		// Not-found, not forbidden: token holders cannot probe for other
		// tenant names.
		writeError(w, fmt.Errorf("%w: %s", ErrNoTenant, want))
		return
	}
	writeJSON(w, http.StatusOK, g.p.Tenant(tenant).Invoice())
}
