package gateway

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faas"
)

// echoResult answers as the gateway answers a sync invoke: the request body
// back, with X-Taureau-Result.
func echoResult(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	setResultHeaders(w.Header(), &faas.Result{RequestID: 1, Attempt: 1, Output: body})
	_, _ = w.Write(body)
}

// countConns serves h and counts the connections the server opened and closed.
func countConns(t *testing.T, h http.HandlerFunc, idle time.Duration) (srv *httptest.Server, opened, closed *atomic.Int32) {
	t.Helper()
	opened, closed = new(atomic.Int32), new(atomic.Int32)
	srv = httptest.NewUnstartedServer(h)
	srv.Config.IdleTimeout = idle
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			opened.Add(1)
		case http.StateClosed:
			closed.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, opened, closed
}

// TestWireSendsNoUnkeyedPostTwice: a server that closes a keep-alive
// connection after 20 ms idle has closed it by each of five un-keyed POSTs
// sent 60 ms apart. The Client peeks the connection before it reuses it, sees
// the close and dials, so every POST succeeds; and the handler runs exactly
// five times, since a POST without an Idempotency-Key is never sent twice.
func TestWireSendsNoUnkeyedPostTwice(t *testing.T) {
	var calls atomic.Int32
	srv, opened, _ := countConns(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		echoResult(w, r)
	}, 20*time.Millisecond)
	tr := &http.Transport{}
	c := &Client{BaseURL: srv.URL, Token: "tok-a", HTTP: &http.Client{Transport: tr}}
	for i := 0; i < 5; i++ {
		if i > 0 {
			time.Sleep(60 * time.Millisecond)
		}
		in := stamped(i, 64)
		if res, err := c.Invoke("f", in); err != nil || !bytes.Equal(res.Output, in) {
			t.Fatalf("POST %d: %q, %v", i, res.Output, err)
		}
	}
	if n := calls.Load(); n != 5 {
		t.Errorf("the handler ran %d times for 5 POSTs", n)
	}
	if n := opened.Load(); n != 5 {
		t.Errorf("%d connections for 5 POSTs each past the idle timeout, want 5", n)
	}
}

// TestWireClientsShareTheirTransportsConns: four Clients with four tokens on
// one Transport, calling in turn, send every request on one connection, each
// with its own token, as they would through the Transport itself.
func TestWireClientsShareTheirTransportsConns(t *testing.T) {
	var wrongToken atomic.Int32
	srv, opened, _ := countConns(t, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.Header.Get("Authorization") != "Bearer "+string(body) {
			wrongToken.Add(1)
		}
		setResultHeaders(w.Header(), &faas.Result{RequestID: 1, Attempt: 1})
	}, 0)
	tr := &http.Transport{}
	var clients []*Client
	for _, tok := range []string{"tok-a", "tok-b", "tok-c", "tok-d"} {
		clients = append(clients, &Client{BaseURL: srv.URL, Token: tok, HTTP: &http.Client{Transport: tr}})
	}
	for round := 0; round < 5; round++ {
		for _, c := range clients {
			if _, err := c.Invoke("f", []byte(c.Token)); err != nil {
				t.Fatalf("round %d, %s: %v", round, c.Token, err)
			}
		}
	}
	if n := wrongToken.Load(); n != 0 {
		t.Errorf("%d requests carried another Client's token", n)
	}
	if n := opened.Load(); n != 1 {
		t.Errorf("4 Clients on one Transport opened %d connections, want 1", n)
	}
}

// TestWireConnsCloseWithTheirTransport: the pool of a Transport nothing
// refers to any more pins nothing, and the Transport's collection closes the
// connections it held, within a few collections.
func TestWireConnsCloseWithTheirTransport(t *testing.T) {
	srv, opened, closed := countConns(t, echoResult, 0)
	func() {
		c := &Client{BaseURL: srv.URL, Token: "tok-a", HTTP: &http.Client{Transport: &http.Transport{}}}
		for i := 0; i < 3; i++ {
			if _, err := c.Invoke("f", []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
	}()
	if n := opened.Load(); n != 1 {
		t.Fatalf("%d connections opened, want 1", n)
	}
	for i := 0; i < 20 && closed.Load() < 1; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := closed.Load(); n != 1 {
		t.Fatalf("%d of 1 connections closed after 20 collections with their Transport dropped", n)
	}
}

// TestWireDeadlineMidBodyPoolsNothing: a call whose HTTP.Timeout lapses
// while the body is read fails as a timeout, and the connection it read
// from, half a response still on it, is closed rather than pooled.
func TestWireDeadlineMidBodyPoolsNothing(t *testing.T) {
	release := make(chan struct{})
	srv, _, _ := countConns(t, func(w http.ResponseWriter, r *http.Request) {
		setResultHeaders(w.Header(), &faas.Result{RequestID: 1, Attempt: 1})
		w.Header().Set("Content-Length", "8")
		_, _ = io.WriteString(w, "half")
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}, 0)
	defer close(release)
	tr := &http.Transport{}
	c := &Client{BaseURL: srv.URL, Token: "tok-a", HTTP: &http.Client{Transport: tr, Timeout: 50 * time.Millisecond}}
	_, err := c.Invoke("f", nil)
	if err == nil || !isTimeout(err) || !strings.Contains(err.Error(), "Client.Timeout") {
		t.Fatalf("a body cut off by the deadline: %v, want a timeout", err)
	}
	p := c.wire
	if p == nil {
		t.Fatal("a Client on a bare Transport did not speak HTTP/1.1 itself")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.nidle != 0 || len(p.idle[c.addr]) != 0 {
		t.Fatalf("%d connections pooled after a call that timed out mid-body", p.nidle)
	}
}

// TestWireAnswerBeforeBodyReturns: a server that sends a complete keep-alive
// answer without reading the request body leaves the body writer blocked once
// the socket buffers are full. The call still returns the answer, as
// net/http's Transport does: after a short wait for the writer it closes the
// connection under it, and keeps it out of the pool.
func TestWireAnswerBeforeBodyReturns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	defer close(hold)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for line := ""; line != "\r\n"; {
			if line, err = br.ReadString('\n'); err != nil {
				return
			}
		}
		_, _ = io.WriteString(conn, "HTTP/1.1 401 Unauthorized\r\nContent-Length: 2\r\n\r\nno")
		<-hold // the body is never read
	}()
	c := &Client{BaseURL: "http://" + ln.Addr().String(), Token: "tok-a", HTTP: &http.Client{Transport: &http.Transport{}}}
	done := make(chan error, 1)
	go func() {
		_, err := c.Invoke("f", make([]byte, 32<<20)) // past any loopback socket's buffers
		done <- err
	}()
	select {
	case err := <-done:
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnauthorized {
			t.Fatalf("an answer sent before the body was read: %v, want a 401", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the call never returned: the body writer blocks on a server that stopped reading")
	}
	c.wire.mu.Lock()
	defer c.wire.mu.Unlock()
	if c.wire.nidle != 0 {
		t.Fatalf("%d connections pooled with a body write cut off", c.wire.nidle)
	}
}

// staticTransport is a Transport off the heap, which can be neither weakly
// keyed nor cleaned up after.
var staticTransport http.Transport

// TestWirePathChoice: http.DefaultTransport takes the own path while its
// DialContext is net/http's own, and the fallback once a program sets another;
// so does a package-level Transport variable, on which the call still works.
func TestWirePathChoice(t *testing.T) {
	c := &Client{Token: "tok-a"}
	u, _ := url.Parse("http://127.0.0.1:1")
	c.base = *u
	if wirePoolFor(c) == nil {
		t.Fatal("a Client on http.DefaultTransport does not speak HTTP/1.1 itself")
	}
	dt := http.DefaultTransport.(*http.Transport)
	orig := dt.DialContext
	dt.DialContext = (&net.Dialer{}).DialContext
	p := wirePoolFor(c)
	dt.DialContext = orig
	if p != nil {
		t.Fatal("a dial hook set on http.DefaultTransport is bypassed by the own path")
	}

	srv, _, _ := countConns(t, echoResult, 0)
	defer staticTransport.CloseIdleConnections()
	s := &Client{BaseURL: srv.URL, Token: "tok-a", HTTP: &http.Client{Transport: &staticTransport}}
	if res, err := s.Invoke("f", []byte("x")); err != nil || string(res.Output) != "x" {
		t.Fatalf("on a package-level Transport: %q, %v", res.Output, err)
	}
	if s.wire != nil {
		t.Fatal("a package-level Transport took the own path, whose pool it cannot clean up after")
	}
}
