package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
)

// newRealGateway boots a real-clock platform behind a live httptest server
// with two tenants: token "tok-a" → "alpha", "tok-b" → "beta". Handler
// tests use the real clock (with millisecond start latencies) so no
// virtual-clock driving is needed.
func newRealGateway(t *testing.T, cfg *Config) (*core.Platform, *httptest.Server) {
	t.Helper()
	p := core.New(core.Options{})
	c := Config{Tokens: map[string]string{"tok-a": "alpha", "tok-b": "beta"}}
	if cfg != nil {
		if cfg.Tokens != nil {
			c.Tokens = cfg.Tokens
		}
		c.Executor = cfg.Executor
		c.MaxBody = cfg.MaxBody
	}
	srv := httptest.NewServer(New(p, c))
	t.Cleanup(srv.Close)
	return p, srv
}

// fastSpec is an echo function with millisecond lifecycle latencies, so
// real-clock tests stay fast.
func fastSpec(name string) FunctionSpec {
	return FunctionSpec{
		Name:        name,
		Handler:     "echo",
		ColdStartMs: 1,
		WarmStartMs: 1,
		KeepAliveMs: 60_000,
	}
}

// httpDo issues a raw request (for cases the typed Client can't produce,
// like missing auth or malformed JSON).
func httpDo(t *testing.T, method, url, token string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// pollDone polls an async invocation until it leaves "pending" (5 s at most).
func pollDone(t *testing.T, c *Client, id string) InvocationStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.Invocation(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != "pending" || time.Now().After(deadline) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func decodeEnvelope(t *testing.T, resp *http.Response) Envelope {
	t.Helper()
	var env Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	return env
}

// TestAuthRequired: every API route (except /healthz) rejects missing and
// unknown tokens with a 401 envelope.
func TestAuthRequired(t *testing.T) {
	_, srv := newRealGateway(t, nil)
	routes := []struct{ method, path string }{
		{http.MethodPost, "/v1/functions"},
		{http.MethodGet, "/v1/functions"},
		{http.MethodDelete, "/v1/functions/f"},
		{http.MethodPost, "/v1/functions/f/invoke"},
		{http.MethodPost, "/v1/functions/f/invoke-async"},
		{http.MethodGet, "/v1/invocations/inv-000001"},
		{http.MethodGet, "/v1/tenants/alpha/invoice"},
	}
	for _, token := range []string{"", "wrong-token"} {
		for _, rt := range routes {
			resp := httpDo(t, rt.method, srv.URL+rt.path, token, nil)
			if resp.StatusCode != http.StatusUnauthorized {
				t.Errorf("%s %s token=%q: status %d, want 401", rt.method, rt.path, token, resp.StatusCode)
				continue
			}
			if env := decodeEnvelope(t, resp); env.Error.Code != "unauthorized" {
				t.Errorf("%s %s: code %q, want unauthorized", rt.method, rt.path, env.Error.Code)
			}
		}
	}
	resp := httpDo(t, http.MethodGet, srv.URL+"/healthz", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz without auth: %d, want 200", resp.StatusCode)
	}
}

// TestRegisterValidation: malformed JSON, incomplete specs, names that
// contain "/" or run past 128 bytes and a prewarm outside [0, 1000] are 400
// bad_request; unknown handlers are 400 unknown_handler; duplicate
// registration is 409 function_exists.
func TestRegisterValidation(t *testing.T) {
	_, srv := newRealGateway(t, nil)
	c := &Client{BaseURL: srv.URL, Token: "tok-a"}

	cases := []struct {
		name     string
		body     string
		wantCode string
	}{
		{"malformed JSON", `{"name": "f", `, "bad_request"},
		{"missing handler", `{"name": "f"}`, "bad_request"},
		{"missing name", `{"handler": "echo"}`, "bad_request"},
		{"slash in name", `{"name": "victim/f", "handler": "echo"}`, "bad_request"},
		{"name too long", `{"name": "` + strings.Repeat("n", 129) + `", "handler": "echo"}`, "bad_request"},
		{"prewarm bomb", `{"name": "f", "handler": "echo", "prewarm": 1000000000}`, "bad_request"},
		{"negative prewarm", `{"name": "f", "handler": "echo", "prewarm": -1}`, "bad_request"},
		{"unknown handler", `{"name": "f", "handler": "cobol"}`, "unknown_handler"},
	}
	for _, tc := range cases {
		resp := httpDo(t, http.MethodPost, srv.URL+"/v1/functions", "tok-a", []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
			continue
		}
		if env := decodeEnvelope(t, resp); env.Error.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q", tc.name, env.Error.Code, tc.wantCode)
		}
	}

	if err := c.Register(fastSpec("dup")); err != nil {
		t.Fatal(err)
	}
	err := c.Register(fastSpec("dup"))
	if !errors.Is(err, faas.ErrExists) {
		t.Fatalf("duplicate register = %v, want errors.Is ErrExists", err)
	}
}

// TestCrossTenantUnprobeable: tenant B invoking (or deleting) tenant A's
// function gets exactly the response a nonexistent function gives — 404
// no_function, never 403 — and B can register the same name for itself.
func TestCrossTenantUnprobeable(t *testing.T) {
	_, srv := newRealGateway(t, nil)
	a := &Client{BaseURL: srv.URL, Token: "tok-a"}
	b := &Client{BaseURL: srv.URL, Token: "tok-b"}

	if err := a.Register(fastSpec("shared")); err != nil {
		t.Fatal(err)
	}
	wantNotFound := func(what string, err error) {
		t.Helper()
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("%s: err = %v, want APIError", what, err)
		}
		if apiErr.Status != http.StatusNotFound || apiErr.Code != "no_function" {
			t.Fatalf("%s: got %d %q, want 404 no_function", what, apiErr.Status, apiErr.Code)
		}
	}
	_, errExisting := b.Invoke("shared", nil)
	wantNotFound("invoke of A's function", errExisting)
	_, errGhost := b.Invoke("never-registered", nil)
	wantNotFound("invoke of ghost", errGhost)
	// The two must be indistinguishable on the wire (same status + code).
	if fmt.Sprint(errors.Unwrap(errExisting)) != fmt.Sprint(errors.Unwrap(errGhost)) {
		t.Fatalf("probeable namespace: existing=%v ghost=%v", errExisting, errGhost)
	}
	wantNotFound("delete of A's function", b.Delete("shared"))

	// B registers its own "shared"; both tenants now resolve their own.
	if err := b.Register(fastSpec("shared")); err != nil {
		t.Fatalf("B register shared: %v", err)
	}
	if _, err := b.Invoke("shared", []byte("from-b")); err != nil {
		t.Fatalf("B invoke own shared: %v", err)
	}
	if _, err := a.Invoke("shared", []byte("from-a")); err != nil {
		t.Fatalf("A invoke own shared: %v", err)
	}
}

// resultOf decodes a response's X-Taureau-Result header.
func resultOf(t *testing.T, h http.Header) InvokeResult {
	t.Helper()
	res, ok := parseResult(h.Get(hdrResult))
	if !ok {
		t.Fatalf("%s = %q does not parse", hdrResult, h.Get(hdrResult))
	}
	return res
}

// TestResultHeaderAllocs: the header is charged once a side — the gateway's
// two allocations hold both of its values, and the client's scan makes none.
func TestResultHeaderAllocs(t *testing.T) {
	res := faas.Result{RequestID: 1 << 40, Attempt: 1, Latency: time.Hour, Billed: time.Hour, TraceID: 1 << 50, Cold: true, Output: make([]byte, 64)}
	h := http.Header{}
	if got := testing.AllocsPerRun(100, func() { setResultHeaders(h, &res) }); got > 2 {
		t.Errorf("setResultHeaders allocates %.0f times, want 2", got)
	}
	value := h.Get(hdrResult)
	if got := testing.AllocsPerRun(100, func() {
		if _, ok := parseResult(value); !ok {
			t.Fatalf("%q does not parse", value)
		}
	}); got != 0 {
		t.Errorf("parseResult allocates %.0f times, want 0", got)
	}
}

// headerNames lists h's keys, sorted.
func headerNames(h http.Header) []string {
	names := make([]string, 0, len(h))
	for k := range h {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// TestInvokeWireShape is the wire contract of a sync invoke, as a whitelist: a
// header added in either direction fails here and becomes a reviewed line.
// A raw http.Client (not gateway.Client) sees, for an empty, a small and a
// multi-buffer output, Content-Length == len(output), no Transfer-Encoding, the
// exact body, and exactly four headers, the metadata all in X-Taureau-Result
// in its canonical order; a replayed Idempotency-Key answers with the same
// bytes, deduped=?1, the original's cold flag and a request id of its own. The
// typed Client decodes the same response to the same values, and what it sends
// is exactly five headers, six when keyed.
func TestInvokeWireShape(t *testing.T) {
	p, srv := newRealGateway(t, nil)
	echo := func(ctx *faas.Ctx, in []byte) ([]byte, error) { return in, nil }
	cfg := faas.Config{ColdStart: time.Millisecond, WarmStart: time.Millisecond, KeepAlive: time.Minute, DedupWindow: time.Minute}
	if err := p.Tenant("alpha").Register("shape", echo, cfg); err != nil {
		t.Fatal(err)
	}
	if hdrResult != http.CanonicalHeaderKey(hdrResult) {
		t.Errorf("header %q is not canonical; setResultHeaders stores it as written", hdrResult)
	}
	invoke := func(payload []byte, idemKey string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/functions/shape/invoke", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer tok-a")
		if idemKey != "" {
			req.Header.Set("Idempotency-Key", idemKey)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	wantNames := []string{"Content-Length", "Content-Type", "Date", hdrResult}
	canonical := regexp.MustCompile(`^request-id=[1-9][0-9]*, attempt=1, latency-ns=[1-9][0-9]*, billed-ns=[1-9][0-9]*, trace-id=[1-9][0-9]*, cold=\?[01], deduped=\?[01]$`)
	// check holds one response to the whitelist and returns its metadata.
	check := func(what string, resp *http.Response, body, payload []byte, cold, deduped bool) InvokeResult {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", what, resp.StatusCode)
		}
		if resp.ContentLength != int64(len(payload)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v; want %d and none", what, resp.ContentLength, resp.TransferEncoding, len(payload))
		}
		if !bytes.Equal(body, payload) {
			t.Errorf("%s: body mismatch (%d bytes back)", what, len(body))
		}
		if got := headerNames(resp.Header); !slices.Equal(got, wantNames) {
			t.Errorf("%s: response headers %v, want exactly %v", what, got, wantNames)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
			t.Errorf("%s: Content-Type %q", what, ct)
		}
		if vs := resp.Header[hdrResult]; len(vs) != 1 || !canonical.MatchString(vs[0]) {
			t.Errorf("%s: %s = %q, want one value in the canonical order", what, hdrResult, vs)
		}
		res := resultOf(t, resp.Header)
		if res.Cold != cold || res.Deduped != deduped || res.Attempt != 1 ||
			res.RequestID <= 0 || res.Latency <= 0 || res.Billed <= 0 || res.TraceID <= 0 {
			t.Errorf("%s: metadata %+v, want cold %v, deduped %v, attempt 1 and positive ids and durations", what, res, cold, deduped)
		}
		return res
	}

	for i, size := range []int{0, 64, 3*(32<<10) + 1} {
		payload := bytes.Repeat([]byte("chunky"), size/6+1)[:size]
		key := fmt.Sprintf("key-%d", size)
		resp, body := invoke(payload, key)
		first := check(fmt.Sprintf("%d B", size), resp, body, payload, i == 0, false)

		// A replay is a request of its own answered with the original's result.
		resp, body = invoke(payload, key)
		replay := check(fmt.Sprintf("%d B replay", size), resp, body, payload, i == 0, true)
		if replay.RequestID <= first.RequestID || replay.Latency != first.Latency || replay.Billed != first.Billed {
			t.Errorf("%d B: replay %+v of %+v; want a later request id and the original's durations", size, replay, first)
		}

		c := &Client{BaseURL: srv.URL, Token: "tok-a"}
		res, err := c.InvokeIdem("shape", key, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Output, payload) || !res.Deduped || res.Cold != (i == 0) || res.RequestID <= replay.RequestID ||
			res.Attempt != 1 || res.Latency != first.Latency || res.Billed != first.Billed || res.TraceID <= 0 {
			res.Output = nil
			t.Errorf("%d B: Client decoded %+v", size, res)
		}
	}
}

// TestClientRequestHeaders is the other direction of the whitelist: a
// recording server sees from Client.Invoke exactly Authorization, Content-Type,
// Content-Length, User-Agent and Accept-Encoding: identity — the API compresses
// nothing, and saying so keeps the Transport from asking for gzip — plus
// Idempotency-Key from InvokeIdem.
func TestClientRequestHeaders(t *testing.T) {
	seen := make(chan http.Header, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen <- r.Header.Clone()
		setResultHeaders(w.Header(), &faas.Result{RequestID: 1, Attempt: 1})
	}))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, Token: "tok-a"}
	want := []string{"Accept-Encoding", "Authorization", "Content-Length", "Content-Type", "User-Agent"}
	for _, key := range []string{"", "k1"} {
		for _, size := range []int{0, 64} {
			if _, err := c.InvokeIdem("f", key, make([]byte, size)); err != nil {
				t.Fatal(err)
			}
			got, names := <-seen, want
			if key != "" {
				names = append(slices.Clone(want), "Idempotency-Key")
				sort.Strings(names)
			}
			if !slices.Equal(headerNames(got), names) {
				t.Errorf("key %q, %d B: request headers %v, want exactly %v", key, size, headerNames(got), names)
			}
			for name, v := range map[string]string{
				"Accept-Encoding": "identity", "Authorization": "Bearer tok-a", "Content-Type": octetStream,
				"Content-Length": strconv.Itoa(size), "Idempotency-Key": key,
			} {
				if got.Get(name) != v || len(got[name]) > 1 {
					t.Errorf("key %q, %d B: %s = %q, want %q", key, size, name, got[name], v)
				}
			}
		}
	}
}

// TestInvokeUnknownLength: a chunked upload (no Content-Length) is read to
// its end and echoed, and is still capped by MaxBody.
func TestInvokeUnknownLength(t *testing.T) {
	const maxBody = 4 << 10
	_, srv := newRealGateway(t, &Config{MaxBody: maxBody})
	c := &Client{BaseURL: srv.URL, Token: "tok-a"}
	if err := c.Register(fastSpec("piped")); err != nil {
		t.Fatal(err)
	}
	upload := func(payload []byte) *http.Response {
		t.Helper()
		pr, pw := io.Pipe()
		go func() {
			_, err := pw.Write(payload)
			pw.CloseWithError(err) // a refused upload fails the write; the response says why
		}()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/functions/piped/invoke", pr)
		if err != nil {
			t.Fatal(err)
		}
		if req.ContentLength != 0 || req.GetBody != nil {
			t.Fatalf("pipe body has a known length: %d", req.ContentLength)
		}
		req.ContentLength = -1
		req.Header.Set("Authorization", "Bearer tok-a")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	payload := bytes.Repeat([]byte("p"), 3000) // several growth steps past 512 B
	resp := upload(payload)
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
		t.Fatalf("chunked upload: status %d, %d bytes back, err %v", resp.StatusCode, len(body), err)
	}
	if resp.ContentLength != int64(len(payload)) {
		t.Errorf("Content-Length %d, want %d", resp.ContentLength, len(payload))
	}

	resp = upload(bytes.Repeat([]byte("p"), maxBody+1))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize chunked upload: status %d, want 413", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != "payload_too_large" {
		t.Fatalf("oversize chunked upload: code %q, want payload_too_large", env.Error.Code)
	}
}

// TestLargeBodyGrowsAsItArrives: a declared length over eagerBody is not
// allocated up front — an upload that announces MaxBody and then stalls holds
// 1 MiB, not 6 — and an honest body of that size still arrives byte-exact,
// in a buffer of exactly its length.
func TestLargeBodyGrowsAsItArrives(t *testing.T) {
	const size = faas.MaxPayload
	stalled := errors.New("stalled")
	b, err := readAllSized(io.MultiReader(strings.NewReader("x"), iotest.ErrReader(stalled)), size)
	if err != stalled || string(b) != "x" || cap(b) > eagerBody {
		t.Fatalf("stalled upload: %d bytes in a %d B buffer, err %v; want 1 byte, <= %d B, %v", len(b), cap(b), err, eagerBody, stalled)
	}
	// Up to eagerBody a declaration is still one exact allocation.
	if b, err = readAllSized(strings.NewReader("x"), eagerBody); err != nil || len(b) != 1 || cap(b) != eagerBody {
		t.Fatalf("1 MiB declaration: %d bytes in a %d B buffer, err %v", len(b), cap(b), err)
	}

	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 31 >> 3)
	}
	if b, err = readAllSized(bytes.NewReader(payload), size); err != nil || !bytes.Equal(b, payload) || cap(b) != size {
		t.Fatalf("6 MiB body: %d bytes in a %d B buffer, err %v", len(b), cap(b), err)
	}

	p, srv := newRealGateway(t, nil)
	if err := p.Tenant("alpha").Register("big", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		return in, nil
	}, faas.Config{ColdStart: time.Millisecond, WarmStart: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	c := &Client{BaseURL: srv.URL, Token: "tok-a"}
	if res, err := c.Invoke("big", payload); err != nil || !bytes.Equal(res.Output, payload) {
		t.Fatalf("6 MiB echo through the gateway: %d bytes back, err %v", len(res.Output), err)
	}
}

// unreadable is a request body that must not be read.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("the body of a request declared over MaxBody was read")
	return 0, io.EOF
}
func (unreadable) Close() error { return nil }

// TestDeclaredOversizeRefusedUnread: a Content-Length over MaxBody is 413
// payload_too_large before a byte of the body is read, on every route that
// takes one.
func TestDeclaredOversizeRefusedUnread(t *testing.T) {
	gw := New(core.New(core.Options{}), Config{Tokens: map[string]string{"tok-a": "alpha"}, MaxBody: 256})
	for _, path := range []string{"/v1/functions", "/v1/functions/f/invoke", "/v1/functions/f/invoke-async"} {
		req := httptest.NewRequest(http.MethodPost, path, unreadable{t})
		req.ContentLength = 257
		req.Header.Set("Authorization", "Bearer tok-a")
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, rec.Code)
			continue
		}
		if env := decodeEnvelope(t, rec.Result()); env.Error.Code != "payload_too_large" {
			t.Errorf("%s: code %q, want payload_too_large", path, env.Error.Code)
		}
	}
}

// TestChunkedBodyStillCapped: MaxBytesReader now guards only the body whose
// length nobody declared, and there it still does: a chunked upload one byte
// over MaxBody is 413 payload_too_large on every route that takes a body, and
// nothing is registered or invoked.
func TestChunkedBodyStillCapped(t *testing.T) {
	p := core.New(core.Options{})
	if err := p.Tenant("alpha").Register("f", func(ctx *faas.Ctx, in []byte) ([]byte, error) { return in, nil }, faas.Config{}); err != nil {
		t.Fatal(err)
	}
	gw := New(p, Config{Tokens: map[string]string{"tok-a": "alpha"}, MaxBody: 256})
	for _, path := range []string{"/v1/functions", "/v1/functions/f/invoke", "/v1/functions/f/invoke-async"} {
		for _, tc := range []struct{ size, want int }{{256, 0}, {257, http.StatusRequestEntityTooLarge}} {
			req := httptest.NewRequest(http.MethodPost, path, iotest.OneByteReader(bytes.NewReader(make([]byte, tc.size))))
			req.ContentLength = -1
			req.Header.Set("Authorization", "Bearer tok-a")
			rec := httptest.NewRecorder()
			gw.ServeHTTP(rec, req)
			if tc.want == 0 {
				// At the cap the body is read whole: a register of 256 zero bytes
				// is bad JSON (400), an invoke of them runs.
				if rec.Code == http.StatusRequestEntityTooLarge {
					t.Errorf("%s, %d B chunked: 413 at the cap", path, tc.size)
				}
				continue
			}
			if rec.Code != tc.want {
				t.Errorf("%s, %d B chunked: status %d, want %d", path, tc.size, rec.Code, tc.want)
				continue
			}
			if env := decodeEnvelope(t, rec.Result()); env.Error.Code != "payload_too_large" {
				t.Errorf("%s, %d B chunked: code %q, want payload_too_large", path, tc.size, env.Error.Code)
			}
		}
	}
	// The two bodies at the cap ran, one sync and one async; no oversize one did.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := p.Tenant("alpha").Stats("f")
		if err != nil {
			t.Fatal(err)
		}
		if st.Invocations == 2 || time.Now().After(deadline) {
			if st.Invocations != 2 {
				t.Errorf("%d invocations, want the 2 at the cap", st.Invocations)
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	if fns := p.Tenant("alpha").Functions(); len(fns) != 1 {
		t.Errorf("functions %+v, want only f", fns)
	}
}

// TestClientAddressesEveryRegisteredName: Register only refuses "/" and
// over-long names, so the Client must reach a name made of the characters a
// URL gives meaning to — on every call that takes a name.
func TestClientAddressesEveryRegisteredName(t *testing.T) {
	const name = "a b?c#d%e"
	_, srv := newRealGateway(t, nil)
	c := &Client{BaseURL: srv.URL, Token: "tok-a"}
	if err := c.Register(fastSpec(name)); err != nil {
		t.Fatal(err)
	}
	if fns, err := c.List(); err != nil || len(fns) != 1 || fns[0].Name != name {
		t.Fatalf("list = %+v, %v; want one function named %q", fns, err, name)
	}
	res, err := c.Invoke(name, []byte("sync"))
	if err != nil || string(res.Output) != "sync" {
		t.Fatalf("invoke = %q, %v", res.Output, err)
	}
	id, err := c.InvokeAsync(name, []byte("async"))
	if err != nil {
		t.Fatal(err)
	}
	st := pollDone(t, c, id)
	if st.Status != "succeeded" || string(st.Output) != "async" {
		t.Fatalf("async status = %+v", st)
	}
	if err := c.Delete(name); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := c.Invoke(name, nil); !errors.Is(err, faas.ErrNoFunction) {
		t.Fatalf("invoke after delete = %v, want ErrNoFunction", err)
	}
}

// TestClientKeepsOneConnection: reading a response to its declared length
// must leave the connection reusable — empty, small and large bodies, errors
// and JSON routes included.
func TestClientKeepsOneConnection(t *testing.T) {
	p := core.New(core.Options{})
	srv := httptest.NewUnstartedServer(New(p, Config{Tokens: map[string]string{"tok-a": "alpha"}}))
	var conns atomic.Int32
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &Client{BaseURL: srv.URL, Token: "tok-a", HTTP: &http.Client{Transport: tr}}
	if err := c.Register(fastSpec("kept")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for _, size := range []int{0, 64, 64 << 10} {
			if res, err := c.Invoke("kept", make([]byte, size)); err != nil || len(res.Output) != size {
				t.Fatalf("invoke %d B: %d bytes back, %v", size, len(res.Output), err)
			}
		}
		if _, err := c.Invoke("ghost", nil); !errors.Is(err, faas.ErrNoFunction) {
			t.Fatalf("invoke of ghost = %v", err)
		}
		if _, err := c.List(); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d connections opened, want 1 kept alive", n)
	}
}

// TestPayloadTooLarge: bodies over MaxBody are 413 payload_too_large.
func TestPayloadTooLarge(t *testing.T) {
	// Big enough for the register spec, far smaller than the invoke payload.
	_, srv := newRealGateway(t, &Config{MaxBody: 256})
	c := &Client{BaseURL: srv.URL, Token: "tok-a"}
	if err := c.Register(fastSpec("small")); err != nil {
		t.Fatal(err)
	}
	_, err := c.Invoke("small", bytes.Repeat([]byte("y"), 1024))
	if !errors.Is(err, faas.ErrPayloadSize) {
		t.Fatalf("oversize invoke = %v, want errors.Is ErrPayloadSize", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize invoke status = %+v, want 413", apiErr)
	}
}

// TestAsyncOversizeRefusedAtTheDoor: under the default MaxBody, an async
// submit of a payload faas would refuse is 413 payload_too_large at the
// submit, not a 202 whose poll fails.
func TestAsyncOversizeRefusedAtTheDoor(t *testing.T) {
	_, srv := newRealGateway(t, nil)
	c := &Client{BaseURL: srv.URL, Token: "tok-a"}
	if err := c.Register(fastSpec("task")); err != nil {
		t.Fatal(err)
	}
	id, err := c.InvokeAsync("task", make([]byte, faas.MaxPayload+1))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge || apiErr.Code != "payload_too_large" {
		t.Fatalf("oversize async submit = %q, %v; want 413 payload_too_large", id, err)
	}
}

// TestAsyncLifecycle: submit → pending id → poll to completion; unknown and
// cross-tenant ids are 404 no_invocation.
func TestAsyncLifecycle(t *testing.T) {
	_, srv := newRealGateway(t, nil)
	c := &Client{BaseURL: srv.URL, Token: "tok-a"}
	b := &Client{BaseURL: srv.URL, Token: "tok-b"}
	if err := c.Register(fastSpec("task")); err != nil {
		t.Fatal(err)
	}
	id, err := c.InvokeAsync("task", []byte("async-payload"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(id, "inv-") {
		t.Fatalf("id = %q, want inv-* form", id)
	}

	st := pollDone(t, c, id)
	if st.Status != "succeeded" {
		t.Fatalf("final status = %q, want succeeded", st.Status)
	}
	if string(st.Output) != "async-payload" {
		t.Fatalf("output = %q", st.Output)
	}
	if st.Attempt < 1 || st.LatencyNs <= 0 {
		t.Fatalf("status record = %+v", st)
	}

	for what, err := range map[string]error{
		"unknown id":      func() error { _, e := c.Invocation("inv-999999"); return e }(),
		"cross-tenant id": func() error { _, e := b.Invocation(id); return e }(),
	} {
		if !errors.Is(err, ErrNoInvocation) {
			t.Errorf("%s: err = %v, want errors.Is ErrNoInvocation", what, err)
		}
	}
}

// TestAsyncFailureSurfacesEnvelopeCode: a handler that always fails reports
// status "failed" with the wire-table code for the underlying error.
func TestAsyncFailureSurfacesEnvelopeCode(t *testing.T) {
	_, srv := newRealGateway(t, nil)
	c := &Client{BaseURL: srv.URL, Token: "tok-a"}
	spec := fastSpec("doomed")
	spec.Handler = "fail"
	spec.MaxRetries = -1 // no async re-attempts; fail fast
	if err := c.Register(spec); err != nil {
		t.Fatal(err)
	}
	id, err := c.InvokeAsync("doomed", nil)
	if err != nil {
		t.Fatal(err)
	}
	st := pollDone(t, c, id)
	if st.Status != "failed" || st.Error == nil {
		t.Fatalf("status = %+v, want failed with error body", st)
	}
	if st.Error.Code != "internal" { // handler app errors carry no sentinel
		t.Fatalf("error code = %q, want internal", st.Error.Code)
	}
}

// TestListDeleteLifecycle: functions appear in the tenant's list with their
// effective config, disappear on delete, and a second delete is 404.
func TestListDeleteLifecycle(t *testing.T) {
	_, srv := newRealGateway(t, nil)
	c := &Client{BaseURL: srv.URL, Token: "tok-a"}
	spec := fastSpec("listed")
	spec.MemoryMB = 512
	if err := c.Register(spec); err != nil {
		t.Fatal(err)
	}
	fns, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(fns) != 1 || fns[0].Name != "listed" || fns[0].MemoryMB != 512 {
		t.Fatalf("list = %+v", fns)
	}
	if err := c.Delete("listed"); err != nil {
		t.Fatal(err)
	}
	if fns, err = c.List(); err != nil || len(fns) != 0 {
		t.Fatalf("list after delete = %+v, %v", fns, err)
	}
	if err := c.Delete("listed"); !errors.Is(err, faas.ErrNoFunction) {
		t.Fatalf("second delete = %v, want ErrNoFunction", err)
	}
}

// TestInvoiceEndpoint: a tenant reads its own bill (nonzero after an
// invoke); another tenant's bill reads as 404 no_tenant.
func TestInvoiceEndpoint(t *testing.T) {
	_, srv := newRealGateway(t, nil)
	c := &Client{BaseURL: srv.URL, Token: "tok-a"}
	if err := c.Register(fastSpec("billed")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke("billed", []byte("x")); err != nil {
		t.Fatal(err)
	}
	inv, err := c.Invoice("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if inv.Tenant != "alpha" || inv.Total <= 0 {
		t.Fatalf("invoice = %+v, want nonzero total for alpha", inv)
	}
	_, err = c.Invoice("beta")
	if !errors.Is(err, ErrNoTenant) {
		t.Fatalf("cross-tenant invoice = %v, want errors.Is ErrNoTenant", err)
	}
}

// TestConcurrentInvokes hammers the gateway from many goroutines mixing
// sync invokes, async submit/poll, lists, and invoices — meaningful under
// -race, and it verifies every response is well-formed.
func TestConcurrentInvokes(t *testing.T) {
	_, srv := newRealGateway(t, nil)
	setup := &Client{BaseURL: srv.URL, Token: "tok-a"}
	spec := fastSpec("hot")
	spec.MaxConcurrency = 64
	if err := setup.Register(spec); err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 8, 20
	var wg sync.WaitGroup
	errCh := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &Client{BaseURL: srv.URL, Token: "tok-a"}
			for i := 0; i < perWorker; i++ {
				payload := []byte(fmt.Sprintf("w%d-i%d", w, i))
				switch i % 4 {
				case 0, 1: // sync invoke
					res, err := c.Invoke("hot", payload)
					if err != nil {
						errCh <- err
					} else if !bytes.Equal(res.Output, payload) {
						errCh <- fmt.Errorf("echo mismatch: %q", res.Output)
					}
				case 2: // async submit + poll once (completion not required)
					id, err := c.InvokeAsync("hot", payload)
					if err != nil {
						errCh <- err
						continue
					}
					if _, err := c.Invocation(id); err != nil {
						errCh <- err
					}
				case 3: // control-plane reads
					if _, err := c.List(); err != nil {
						errCh <- err
					}
					if _, err := c.Invoice("alpha"); err != nil {
						errCh <- err
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
