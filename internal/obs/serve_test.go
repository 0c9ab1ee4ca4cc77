package obs

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// startServing runs serveUntil on a loopback listener and returns its
// address, the cancel that stands in for SIGTERM, and its eventual result.
func startServing(t *testing.T, srv *http.Server, drain time.Duration) (addr string, shutdown func(), result <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan error, 1)
	go func() { done <- serveUntil(ctx, srv, ln, drain) }()
	return ln.Addr().String(), cancel, done
}

// awaitRefusal returns once addr no longer accepts: Shutdown has begun.
func awaitRefusal(t *testing.T, addr string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		c.Close()
	}
	t.Fatal("listener still accepting 5 s after shutdown began")
}

// TestServeDrainsAndTimesOut: the server Serve builds has both socket
// timeouts set; a request in flight when shutdown begins completes with 200
// and serveUntil then returns nil; a connection that never sends a header is
// closed; and a request that outlives the drain is cut off with an error.
func TestServeDrainsAndTimesOut(t *testing.T) {
	if srv := newServer(nil); srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout ||
		readHeaderTimeout <= 0 || idleTimeout <= 0 || drainTimeout <= 0 {
		t.Fatalf("server built with ReadHeaderTimeout %v, IdleTimeout %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	entered, release := make(chan struct{}, 2), make(chan struct{})
	defer close(release)
	slow := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		entered <- struct{}{}
		<-release
		_, _ = io.WriteString(w, "done")
	})
	get := func(addr string) <-chan error {
		res := make(chan error, 1)
		go func() {
			resp, err := http.Get("http://" + addr + "/")
			if err == nil {
				var body []byte
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil && (resp.StatusCode != http.StatusOK || string(body) != "done") {
					err = errors.New(resp.Status + " " + string(body))
				}
			}
			res <- err
		}()
		return res
	}

	t.Run("in-flight request completes", func(t *testing.T) {
		addr, shutdown, result := startServing(t, newServer(slow), 5*time.Second)
		res := get(addr)
		<-entered
		shutdown()
		awaitRefusal(t, addr)
		release <- struct{}{}
		if err := <-res; err != nil {
			t.Fatalf("request in flight at shutdown: %v, want 200 done", err)
		}
		if err := <-result; err != nil {
			t.Fatalf("serveUntil = %v, want nil after a clean drain", err)
		}
	})

	t.Run("silent connection is closed", func(t *testing.T) {
		srv := newServer(slow)
		srv.ReadHeaderTimeout = 50 * time.Millisecond
		addr, _, _ := startServing(t, srv, time.Second)
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("read on a connection that sent no header: %d bytes, %v; want the server to close it", n, err)
		}
	})

	t.Run("drain is bounded", func(t *testing.T) {
		addr, shutdown, result := startServing(t, newServer(slow), 50*time.Millisecond)
		res := get(addr)
		<-entered
		shutdown()
		if err := <-result; !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("serveUntil = %v, want the drain deadline", err)
		}
		if err := <-res; err == nil {
			t.Fatal("a request that outlived the drain still got its response")
		}
	})
}
