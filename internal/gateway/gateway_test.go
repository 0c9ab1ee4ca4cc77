package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
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

// TestRegisterValidation: malformed JSON, incomplete specs and names that
// contain "/" or run past 128 bytes are 400 bad_request; unknown handlers are
// 400 unknown_handler; duplicate registration is 409 function_exists.
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

// TestInvokeStreamingAndHeaders: the sync invoke round-trips a payload
// larger than the streaming chunk size and carries result metadata in
// X-Taureau-* headers.
func TestInvokeStreamingAndHeaders(t *testing.T) {
	_, srv := newRealGateway(t, nil)
	c := &Client{BaseURL: srv.URL, Token: "tok-a"}
	if err := c.Register(fastSpec("big")); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("chunky"), (invokeChunk*3)/6+1)
	res, err := c.Invoke("big", payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Output, payload) {
		t.Fatalf("output mismatch: got %d bytes, want %d", len(res.Output), len(payload))
	}
	if !res.Cold {
		t.Error("first invoke should be cold")
	}
	if res.RequestID <= 0 || res.Attempt != 1 || res.Latency <= 0 {
		t.Errorf("metadata = %+v, want positive request id/latency, attempt 1", res)
	}
	if res.TraceID <= 0 {
		t.Errorf("trace id = %d, want a rooted trace per HTTP invoke", res.TraceID)
	}
	warm, err := c.Invoke("big", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cold {
		t.Error("second invoke should be warm")
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

	var st InvocationStatus
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err = c.Invocation(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != "pending" || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.Status != "succeeded" {
		t.Fatalf("final status = %q, want succeeded", st.Status)
	}
	if string(st.Output) != "async-payload" {
		t.Fatalf("output = %q", st.Output)
	}
	if st.Function != "task" || st.Attempt < 1 || st.LatencyNs <= 0 {
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
	var st InvocationStatus
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err = c.Invocation(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != "pending" || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
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
