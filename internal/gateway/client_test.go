package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
)

// stubServer answers every request with h; the Client under test talks to it
// as tenant "alpha".
func stubServer(t *testing.T, h http.HandlerFunc) *Client {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return &Client{BaseURL: srv.URL, Token: "tok-a"}
}

// TestClientCarriesRetryAfter: the back-off hint a throttle-class envelope
// carries reaches the caller, beside the sentinel its code maps to; an error
// that carries none reads zero.
func TestClientCarriesRetryAfter(t *testing.T) {
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		writeError(w, fmt.Errorf("%w: alpha over its share", faas.ErrTenantThrottled))
	})
	_, err := c.Invoke("f", nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || !errors.Is(err, faas.ErrTenantThrottled) {
		t.Fatalf("throttled invoke = %v, want an *APIError that is ErrTenantThrottled", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Code != "tenant_throttled" || apiErr.RetryAfter != time.Second {
		t.Fatalf("throttled invoke = %+v, want 429 tenant_throttled with RetryAfter 1s", apiErr)
	}

	_, srv := newRealGateway(t, nil)
	_, err = (&Client{BaseURL: srv.URL, Token: "tok-a"}).Invoke("ghost", nil)
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.RetryAfter != 0 {
		t.Fatalf("invoke of ghost = %+v (%v), want a 404 with no RetryAfter", apiErr, err)
	}
}

// TestClientRefusesWhatIsNoResult: with no redirect follower under the Client
// a 3xx must not come back as a result, and a 200 that lacks well-formed
// metadata must not come back as a result full of zeros.
func TestClientRefusesWhatIsNoResult(t *testing.T) {
	const good = "request-id=7, attempt=1, latency-ns=5, billed-ns=1000000, trace-id=9, cold=?0, deduped=?0"
	for _, tc := range []struct {
		name    string
		status  int
		result  string // X-Taureau-Result, unless empty
		body    string
		wantAPI int    // an *APIError of this status, code "internal"
		wantErr string // else an error holding this
	}{
		{name: "302", status: http.StatusFound, body: "<a href=\"/elsewhere\">Found</a>", wantAPI: http.StatusFound},
		{name: "304 with metadata", status: http.StatusNotModified, result: good, wantAPI: http.StatusNotModified},
		{name: "200 without header", status: http.StatusOK, body: "out", wantErr: "gateway client: bad result header"},
		{name: "200 with latency-ns=abc", status: http.StatusOK, result: strings.Replace(good, "=5,", "=abc,", 1), body: "out", wantErr: "gateway client: bad result header"},
		{name: "200 well-formed", status: http.StatusOK, result: good, body: "out"},
	} {
		c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
			if tc.status == http.StatusFound {
				w.Header().Set("Location", "/elsewhere")
			}
			if tc.result != "" {
				w.Header().Set(hdrResult, tc.result)
			}
			w.WriteHeader(tc.status)
			_, _ = io.WriteString(w, tc.body)
		})
		res, err := c.Invoke("f", []byte("in"))
		var apiErr *APIError
		switch {
		case tc.wantAPI != 0:
			if !errors.As(err, &apiErr) || apiErr.Status != tc.wantAPI || apiErr.Code != "internal" {
				t.Errorf("%s: err = %v, want an *APIError with status %d and code internal", tc.name, err, tc.wantAPI)
			}
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || errors.As(err, &apiErr) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
			}
		default:
			if err != nil || res.RequestID != 7 || res.TraceID != 9 || res.Latency != 5 || res.Billed != time.Millisecond || string(res.Output) != "out" {
				t.Errorf("%s: %+v, %v", tc.name, res, err)
			}
		}
		if err != nil && (res.Output != nil || res.RequestID != 0) {
			t.Errorf("%s: a result came back beside the error: %+v", tc.name, res)
		}
	}
}

// TestClientTimeoutCoversBodyRead: HTTP.Timeout bounds the whole call. A
// server that sends its response header and then stalls fails the call inside
// the timeout, as a timeout, and the connection it stalled on is not reused.
func TestClientTimeoutCoversBodyRead(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		setResultHeaders(w.Header(), &faas.Result{RequestID: 1, Attempt: 1, Output: []byte("four")})
		if !strings.Contains(r.URL.Path, "/stall/") {
			_, _ = io.WriteString(w, "four")
			return
		}
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		select { // the body never comes
		case <-release:
		case <-r.Context().Done():
		}
	}))
	var conns atomic.Int32
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	defer close(release)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	// Two Clients on one Transport: only the stalled call races a deadline.
	c := &Client{BaseURL: srv.URL, Token: "tok-a", HTTP: &http.Client{Transport: tr}}
	hasty := &Client{BaseURL: srv.URL, Token: "tok-a", HTTP: &http.Client{Transport: tr, Timeout: 50 * time.Millisecond}}

	if res, err := c.Invoke("ok", nil); err != nil || string(res.Output) != "four" {
		t.Fatalf("invoke before the stall: %q, %v", res.Output, err)
	}
	start := time.Now()
	_, err := hasty.Invoke("stall", nil)
	if took := time.Since(start); err == nil || took > time.Second {
		t.Fatalf("stalled body: err %v after %v, want an error inside 1s", err, took)
	}
	var netErr net.Error
	if !errors.Is(err, context.DeadlineExceeded) || !errors.As(err, &netErr) || !netErr.Timeout() {
		t.Errorf("stalled body: err %v, want a timeout", err)
	}
	if res, err := c.Invoke("ok", nil); err != nil || string(res.Output) != "four" {
		t.Fatalf("invoke after the timeout: %q, %v", res.Output, err)
	}
	if n := conns.Load(); n != 2 {
		t.Errorf("%d connections opened, want 2: one kept until the stall, a fresh one after it", n)
	}
}

// keptConn is the client's end of a keep-alive connection the server closes.
// The Transport learns of the close either by reading it while the connection
// idles, after which it calls Close (signalled on closed), or — when the next
// request beats that read — by a failed write, which breakNext forces.
type keptConn struct {
	net.Conn
	closed    chan<- struct{}
	breakNext *atomic.Bool
}

func (c *keptConn) Close() error {
	select {
	case c.closed <- struct{}{}:
	default:
	}
	return c.Conn.Close()
}

func (c *keptConn) Write(b []byte) (int, error) {
	if c.breakNext.CompareAndSwap(true, false) {
		return 0, syscall.EPIPE
	}
	return c.Conn.Write(b)
}

// TestClientReplaysOnClosedKeepAlive: sending on the Transport keeps what
// http.Client.Do relied on when the server has closed a keep-alive connection.
// If the Transport has seen the close, the next 64 KiB Invoke goes out on a
// fresh connection; if it has not, the request's write fails with nothing sent,
// and because the request carries GetBody the Transport sends it again on a
// fresh connection instead of failing the call. (The second case is a 64 B
// body: the Transport reports a failed write of a request that fills its 4 KiB
// buffer as the body's error, which it never retries.)
func TestClientReplaysOnClosedKeepAlive(t *testing.T) {
	p := core.New(core.Options{})
	srv := httptest.NewServer(New(p, Config{Tokens: map[string]string{"tok-a": "alpha"}}))
	defer srv.Close()
	closed := make(chan struct{}, 1)
	var breakNext atomic.Bool
	var dials atomic.Int32
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		dials.Add(1)
		return &keptConn{Conn: conn, closed: closed, breakNext: &breakNext}, nil
	}}
	defer tr.CloseIdleConnections()
	c := &Client{BaseURL: srv.URL, Token: "tok-a", HTTP: &http.Client{Transport: tr}}
	if err := c.Register(fastSpec("kept")); err != nil {
		t.Fatal(err)
	}
	echo := func(what string, size int, wantDials int32) {
		t.Helper()
		payload := stamped(int(wantDials), size)
		if res, err := c.Invoke("kept", payload); err != nil || !bytes.Equal(res.Output, payload) {
			t.Fatalf("%s: %d bytes back, %v", what, len(res.Output), err)
		}
		if n := dials.Load(); n != wantDials {
			t.Fatalf("%s: %d connections dialled, want %d", what, n, wantDials)
		}
	}
	echo("on the connection Register opened", 64<<10, 1)

	srv.CloseClientConnections()
	select {
	case <-closed: // the Transport read the close and dropped the connection
	case <-time.After(5 * time.Second):
		t.Fatal("the Transport never closed the connection the server had closed")
	}
	echo("after a close the Transport saw", 64<<10, 2)

	breakNext.Store(true)
	echo("after a close met on the write", 64, 3)
	if breakNext.Load() {
		t.Fatal("the broken write never happened: nothing was replayed")
	}
}

// pathTransport answers every request without a network, as the gateway
// would an invoke or a submit, and keeps the path of the last one.
type pathTransport struct{ last string }

func (pt *pathTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	pt.last = r.URL.Path
	resp := &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: http.NoBody}
	answerPath(resp.Header, r.URL.Path)
	if strings.HasSuffix(r.URL.Path, "/invoke-async") {
		resp.StatusCode = http.StatusAccepted
	}
	return resp, nil
}

// answerPath writes the header of the gateway's answer to a submit, a 202's
// Location, or else to an invoke.
func answerPath(h http.Header, path string) {
	if strings.HasSuffix(path, "/invoke-async") {
		h.Set("Location", "/v1/invocations/inv-000001")
	} else {
		setResultHeaders(h, &faas.Result{RequestID: 1, Attempt: 1})
	}
}

// TestClientPathCacheIsBounded: a Client that invokes and submits many names
// in turn sends every call to its own name's path, under BaseURL's, on both
// paths: through net/http, on a RoundTripper that is no *http.Transport, and
// on the Client's own HTTP/1.1 path, to a real server. A name that holds
// bytes a path must escape reaches that server as the name, in the request
// line net/http would have written.
func TestClientPathCacheIsBounded(t *testing.T) {
	pt := &pathTransport{}
	viaHTTP := &Client{BaseURL: "http://gw.invalid/prefix", Token: "tok-a", HTTP: &http.Client{Transport: pt}}
	for i := 0; i < 10_000; i++ {
		name := fmt.Sprintf("fn-%d", i)
		if _, err := viaHTTP.Invoke(name, nil); err != nil || pt.last != "/prefix/v1/functions/"+name+"/invoke" {
			t.Fatalf("invoke of %s went to %q: %v", name, pt.last, err)
		}
		if _, err := viaHTTP.InvokeAsync(name, nil); err != nil || pt.last != "/prefix/v1/functions/"+name+"/invoke-async" {
			t.Fatalf("submit of %s went to %q: %v", name, pt.last, err)
		}
	}

	var last, lastURI string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		last, lastURI = r.URL.Path, r.RequestURI
		answerPath(w.Header(), r.URL.Path)
		if strings.HasSuffix(r.URL.Path, "/invoke-async") {
			w.WriteHeader(http.StatusAccepted)
		}
	}))
	defer srv.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	own := &Client{BaseURL: srv.URL + "/prefix", Token: "tok-a", HTTP: &http.Client{Transport: tr}}
	for i := 0; i < 1_000; i++ {
		name := fmt.Sprintf("fn-%d", i)
		if i == 0 {
			name = "fn ?#%\xe9!*'()[]{}|^`\"<>$&+,;=@:~"
		}
		for _, verb := range []string{"/invoke", "/invoke-async"} {
			var err error
			if verb == "/invoke" {
				_, err = own.Invoke(name, nil)
			} else {
				_, err = own.InvokeAsync(name, nil)
			}
			want := "/prefix/v1/functions/" + name + verb
			if err != nil || last != want || lastURI != (&url.URL{Path: want}).EscapedPath() {
				t.Fatalf("%s of %q went to %q as %q: %v", verb, name, last, lastURI, err)
			}
		}
	}
	if own.wire == nil || viaHTTP.wire != nil {
		t.Fatalf("the Client on a bare Transport took the own path: %v, the one on a wrapper: %v", own.wire != nil, viaHTTP.wire != nil)
	}
}

// TestClientRefusesWhatIsNoInvocation: a submit's id is the last segment of
// its Location and must be one the gateway writes, and a poll answer that is
// neither an empty 202 nor a finished invocation's, with X-Taureau-Result,
// is an error, not a status.
func TestClientRefusesWhatIsNoInvocation(t *testing.T) {
	const good = "request-id=7, attempt=1, latency-ns=5, billed-ns=1000000, trace-id=9, cold=?0, deduped=?0"
	for _, tc := range []struct {
		location, wantID string
	}{
		{"/v1/invocations/inv-000042", "inv-000042"},
		{"http://gw.example/v2/jobs/inv-1234567", "inv-1234567"},
		{"/v1/invocations/inv-42", ""},
		{"/v1/invocations/inv-000042/", ""},
		{"", ""},
	} {
		c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
			if tc.location != "" {
				w.Header().Set("Location", tc.location)
			}
			w.WriteHeader(http.StatusAccepted)
		})
		id, err := c.InvokeAsync("f", []byte("in"))
		if id != tc.wantID || (err == nil) != (tc.wantID != "") {
			t.Errorf("Location %q: id %q, err %v; want id %q", tc.location, id, err, tc.wantID)
		}
	}
	for _, tc := range []struct {
		name, result string
		status       int
		wantStatus   string // else an error
	}{
		{"202", "", http.StatusAccepted, "pending"},
		{"200 with metadata", good, http.StatusOK, "succeeded"},
		{"500 envelope with metadata", good, http.StatusInternalServerError, "failed"},
		{"200 without metadata", "", http.StatusOK, ""},
		{"202 with metadata", good, http.StatusAccepted, ""},
		{"200 with a bad header", "request-id=7", http.StatusOK, ""},
		{"404 without metadata", "", http.StatusNotFound, ""},
	} {
		c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
			if tc.result != "" {
				w.Header().Set(hdrResult, tc.result)
			}
			if tc.status >= 400 {
				writeEnvelope(w, wireMapping{Status: tc.status, Code: "internal"}, "boom", false)
				return
			}
			w.WriteHeader(tc.status)
		})
		st, err := c.Invocation("inv-000001")
		if st.Status != tc.wantStatus || (err == nil) != (tc.wantStatus != "") {
			t.Errorf("%s: status %q, err %v; want %q", tc.name, st.Status, err, tc.wantStatus)
		}
	}
}
