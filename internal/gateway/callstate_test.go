package gateway

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faas"
)

// TestEarlyRefusalMidUpload: a server that answers before it has read the
// request body must not leave the next call anything the writer of that
// body still uses. The gateway refuses an unknown token before it reads a
// byte, so a 1 MiB upload under one is answered 401 while most of it is
// still on its way; four goroutines alternate those with small echoes
// through one *http.Transport, so a connection or request state still in
// the writer's hands, reused by the next echo, shows as a race or a wrong
// echo.
func TestEarlyRefusalMidUpload(t *testing.T) {
	const workers, rounds = 4, 8
	_, srv := newRealGateway(t, nil)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	good := &Client{BaseURL: srv.URL, Token: "tok-a", HTTP: &http.Client{Transport: tr}}
	bad := &Client{BaseURL: srv.URL, Token: "no-such-token", HTTP: &http.Client{Transport: tr}}
	if err := good.Register(fastSpec("f")); err != nil {
		t.Fatal(err)
	}
	big := stamped(-1, 1<<20)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var apiErr *APIError
				if _, err := bad.Invoke("f", big); !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnauthorized {
					t.Errorf("worker %d round %d: 1 MiB under a bad token: %v, want a 401", w, i, err)
					return
				}
				small := stamped(w*rounds+i, 64)
				if res, err := good.Invoke("f", small); err != nil || !bytes.Equal(res.Output, small) {
					t.Errorf("worker %d round %d: echo %q, %v", w, i, res.Output, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// sentRequest is what a request carried when it was sent; key and ctype are
// the quoted values of Idempotency-Key and Content-Type, "[]" when absent.
type sentRequest struct {
	method, path, auth, key, ctype string
	length                         int64
	body                           bool
}

func snapshot(r *http.Request) sentRequest {
	return sentRequest{r.Method, r.URL.Path, r.Header.Get("Authorization"),
		fmt.Sprintf("%q", r.Header["Idempotency-Key"]), fmt.Sprintf("%q", r.Header["Content-Type"]), r.ContentLength, r.Body != nil}
}

// recordingTransport records each request it sends and keeps it.
type recordingTransport struct {
	next http.RoundTripper
	mu   sync.Mutex
	sent []sentRequest
	kept []*http.Request
}

func (rt *recordingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rt.mu.Lock()
	rt.sent, rt.kept = append(rt.sent, snapshot(r)), append(rt.kept, r)
	rt.mu.Unlock()
	return rt.next.RoundTrip(r)
}

// TestEachRequestSetsEveryField: one call's request carries nothing of the
// call before it. Two Clients take turns on one Transport: a keyed POST with
// a body, a bodyless poll GET and an un-keyed POST. Each request carries its
// own Client's token, the GET no body, length, key or Content-Type, and the
// un-keyed POST no key — as a RoundTripper wrapper sees them, and as the
// server does through the bare Transport, on the Client's own HTTP/1.1 path.
func TestEachRequestSetsEveryField(t *testing.T) {
	p := core.New(core.Options{})
	for _, tenant := range []string{"alpha", "beta"} {
		h, err := NewInProc().Resolve(fastSpec("f"))
		if err == nil {
			err = p.Tenant(tenant).Register("f", h, fastSpec("f").faasConfig())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	gw := New(p, Config{Tokens: map[string]string{"tok-a": "alpha", "tok-b": "beta"}})
	seen := make(chan sentRequest, 3) // a round's requests, read after it
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen <- snapshot(r)
		gw.ServeHTTP(w, r)
	}))
	defer srv.Close()
	want := []sentRequest{
		{http.MethodPost, "/v1/functions/f/invoke", "Bearer tok-a", `["key-1"]`, `["application/octet-stream"]`, 64, true},
		{http.MethodGet, "/v1/invocations/inv-000001", "Bearer tok-b", "[]", "[]", 0, false},
		{http.MethodPost, "/v1/functions/f/invoke", "Bearer tok-b", "[]", `["application/octet-stream"]`, 5, true},
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	wrapped := &recordingTransport{next: tr}
	for _, rt := range []http.RoundTripper{tr, wrapped} {
		a := &Client{BaseURL: srv.URL, Token: "tok-a", HTTP: &http.Client{Transport: rt}}
		b := &Client{BaseURL: srv.URL, Token: "tok-b", HTTP: &http.Client{Transport: rt}}
		for i := 0; i < 3; i++ {
			if res, err := a.InvokeIdem("f", "key-1", stamped(1, 64)); err != nil || !bytes.Equal(res.Output, stamped(1, 64)) {
				t.Fatalf("keyed POST: %q, %v", res.Output, err)
			}
			var apiErr *APIError
			if _, err := b.Invocation("inv-000001"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
				t.Fatalf("poll GET: %v, want a 404", err)
			}
			if res, err := b.Invoke("f", []byte("plain")); err != nil || string(res.Output) != "plain" {
				t.Fatalf("un-keyed POST: %q, %v", res.Output, err)
			}
			for j, w := range want {
				if got := <-seen; got.method != w.method || got.path != w.path || got.auth != w.auth || got.key != w.key || got.ctype != w.ctype || got.length != w.length {
					t.Errorf("round %d, request %d: the server saw %+v, want %+v", i, j, got, w)
				}
			}
		}
	}
	for i, got := range wrapped.sent {
		if w := want[i%len(want)]; got != w {
			t.Errorf("request %d: the wrapper saw %+v, want %+v", i, got, w)
		}
	}
}

// TestForeignRoundTripperKeepsItsRequests: a RoundTripper that is not an
// *http.Transport may keep what it is handed, so every request sent through
// one is its own: each it kept still reads as it was sent, and no two are
// the same request.
func TestForeignRoundTripperKeepsItsRequests(t *testing.T) {
	_, srv := newRealGateway(t, nil)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	rt := &recordingTransport{next: tr}
	a := &Client{BaseURL: srv.URL, Token: "tok-a", HTTP: &http.Client{Transport: rt}}
	b := &Client{BaseURL: srv.URL, Token: "tok-b", HTTP: &http.Client{Transport: rt}}
	for _, c := range []*Client{a, b} {
		if err := c.Register(fastSpec("f")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		c, in := a, []byte(fmt.Sprint("a-", i))
		if i%2 == 1 {
			c, in = b, []byte(fmt.Sprint("b-", i))
		}
		if res, err := c.Invoke("f", in); err != nil || !bytes.Equal(res.Output, in) {
			t.Fatalf("invoke %d: %q, %v", i, res.Output, err)
		}
		if _, err := c.List(); err != nil {
			t.Fatalf("list %d: %v", i, err)
		}
	}
	distinct := map[*http.Request]bool{}
	for i, r := range rt.kept {
		if got := snapshot(r); got != rt.sent[i] {
			t.Errorf("request %d reads %+v after the calls, was sent as %+v", i, got, rt.sent[i])
		}
		distinct[r] = true
	}
	if len(distinct) != len(rt.kept) {
		t.Errorf("%d requests sent, %d distinct: a call was reused", len(rt.kept), len(distinct))
	}
}

// TestInvocationPoolResetOnPut: the moment putInvocation returns, the
// invocation keeps nothing of the request it served — no tenant, name, key,
// payload or result — and still holds its bound run func.
func TestInvocationPoolResetOnPut(t *testing.T) {
	inv := invocationPool.Get().(*invocation)
	inv.g, inv.tenant, inv.name, inv.idemKey, inv.payload = &Gateway{}, "tenant-a", "leaky", "key-1", []byte("payload")
	inv.res, inv.err = faas.Result{Output: []byte("out"), RequestID: 42, Attempt: 2, Cold: true}, errors.New("failed")
	putInvocation(inv)
	if inv.run == nil {
		t.Fatal("putInvocation dropped the bound run func")
	}
	left := *inv
	left.run = nil
	if !reflect.DeepEqual(left, invocation{}) {
		t.Fatalf("putInvocation left state behind: %+v", left)
	}
}

// TestSmallResponseBodies pins the bodies of a register and an async submit
// byte for byte: two sorted keys, two-space indent, HTML-escaped strings; and
// none, beside the poll URL in Location.
func TestSmallResponseBodies(t *testing.T) {
	_, g := poolGateway(t, echoHandler, 0)
	serve := func(method, path, body string) (int, string, string) {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Authorization", "Bearer tok-a")
		w := httptest.NewRecorder()
		g.ServeHTTP(w, req)
		return w.Code, w.Body.String(), w.Header().Get("Location")
	}
	if code, got, _ := serve(http.MethodPost, "/v1/functions", `{"name":"g<&>","handler":"echo"}`); code != http.StatusCreated ||
		got != "{\n  \"name\": \"g\\u003c\\u0026\\u003e\",\n  \"tenant\": \"alpha\"\n}\n" {
		t.Errorf("register: %d %q", code, got)
	}
	if code, got, loc := serve(http.MethodPost, "/v1/functions/f/invoke-async", "in"); code != http.StatusAccepted ||
		got != "" || loc != "/v1/invocations/inv-000001" {
		t.Errorf("async submit: %d %q, Location %q", code, got, loc)
	}
}
