package gateway

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
)

// poolGateway is a real-clock gateway with one function per tenant ("alpha"
// behind "tok-a", "beta" behind "tok-b"), both named "f" and both running h
// with nanosecond start latencies and a one-minute dedup window.
func poolGateway(t *testing.T, h faas.Handler, maxBody int64) (*core.Platform, *Gateway) {
	t.Helper()
	p := core.New(core.Options{})
	cfg := faas.Config{ColdStart: 1, WarmStart: 1, KeepAlive: time.Hour, DedupWindow: time.Minute}
	for _, tenant := range []string{"alpha", "beta"} {
		if err := p.Tenant(tenant).Register("f", h, cfg); err != nil {
			t.Fatal(err)
		}
	}
	return p, New(p, Config{Tokens: map[string]string{"tok-a": "alpha", "tok-b": "beta"}, MaxBody: maxBody})
}

func echoHandler(ctx *faas.Ctx, in []byte) ([]byte, error) { return in, nil }

// stamped is a body of n bytes that repeats (seed, n): no two differ only
// past their first 16 bytes, and filling one is a few copies.
func stamped(seed, n int) []byte {
	b := make([]byte, n+16)
	binary.LittleEndian.PutUint64(b, uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(n))
	for filled := 16; filled < n; filled *= 2 {
		copy(b[filled:], b[:filled])
	}
	return b[:n:n]
}

// wireReq is one request to function "f" through ServeHTTP.
type wireReq struct {
	token, key     string
	async, chunked bool
	body           []byte
}

// do serves the request on the calling goroutine, so the pool it meets is the
// one the previous call on this goroutine left. An async invoke is polled to
// its end, whose answer is what a sync invoke's would be.
func (q wireReq) do(t *testing.T, g *Gateway) (int, http.Header, []byte) {
	t.Helper()
	path := "/v1/functions/f/invoke"
	if q.async {
		path += "-async"
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(q.body))
	if q.chunked {
		req.ContentLength = -1
	}
	req.Header.Set("Authorization", "Bearer "+q.token)
	if q.key != "" {
		req.Header.Set("Idempotency-Key", q.key)
	}
	w := httptest.NewRecorder()
	g.ServeHTTP(w, req)
	if !q.async || w.Code != http.StatusAccepted {
		return w.Code, w.Header(), w.Body.Bytes()
	}
	id := submittedID(t, w)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		poll := httptest.NewRequest(http.MethodGet, "/v1/invocations/"+id, nil)
		poll.Header.Set("Authorization", "Bearer "+q.token)
		pw := httptest.NewRecorder()
		g.ServeHTTP(pw, poll)
		if pw.Code != http.StatusAccepted || time.Now().After(deadline) {
			return pw.Code, pw.Header(), pw.Body.Bytes()
		}
	}
}

// TestIdempotencyKeyLength: a key is held, with its result, for the dedup
// window, so its length is bounded before the body is read: 256 bytes pass,
// 257 are 400 bad_request with the body unread and nothing invoked.
func TestIdempotencyKeyLength(t *testing.T) {
	p, g := poolGateway(t, echoHandler, 0)
	for _, tc := range []struct {
		keyLen, wantStatus int
		wantCode           string
	}{
		{maxIdemKeyLen, http.StatusOK, ""},
		{maxIdemKeyLen + 1, http.StatusBadRequest, "bad_request"},
	} {
		var body io.ReadCloser = unreadable{t}
		if tc.wantStatus == http.StatusOK {
			body = io.NopCloser(strings.NewReader("body"))
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/functions/f/invoke", body)
		req.ContentLength = 4
		req.Header.Set("Authorization", "Bearer tok-a")
		req.Header.Set("Idempotency-Key", strings.Repeat("k", tc.keyLen))
		w := httptest.NewRecorder()
		g.ServeHTTP(w, req)
		if w.Code != tc.wantStatus {
			t.Fatalf("%d B key: status %d, want %d", tc.keyLen, w.Code, tc.wantStatus)
		}
		if tc.wantCode == "" {
			if w.Body.String() != "body" {
				t.Errorf("%d B key: echoed %q", tc.keyLen, w.Body)
			}
		} else if env := decodeEnvelope(t, w.Result()); env.Error.Code != tc.wantCode {
			t.Errorf("%d B key: code %q, want %q", tc.keyLen, env.Error.Code, tc.wantCode)
		}
		// One invocation, the accepted key's, before and after the refusal.
		if st, err := p.Tenant("alpha").Stats("f"); err != nil || st.Invocations != 1 {
			t.Errorf("%d B key: %d invocations (%v), want 1", tc.keyLen, st.Invocations, err)
		}
	}
}

// TestPayloadCapacityIsItsLength: a handler that reaches for everything its
// payload slice can reach gets the payload and no more. After tenant alpha's
// 64 KiB un-keyed body of 0xAA has been through the pool, tenant beta's 16 B
// request comes back as exactly its 16 bytes on every path — declared length
// and chunked, pooled (un-keyed) and owned (keyed, async) — so neither a
// recycled buffer's stale bytes nor a grown buffer's spare room is
// reachable. The un-keyed request must also have been served from alpha's
// buffer at least once, or the test proved nothing about recycling.
func TestPayloadCapacityIsItsLength(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	var lastBacking *byte
	_, g := poolGateway(t, func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		if all := in[:cap(in)]; len(all) > 0 {
			lastBacking = &all[0]
		}
		return in[:cap(in)], nil
	}, 0)
	big := bytes.Repeat([]byte{0xAA}, 64<<10)
	small := []byte("sixteen bytes!!!")
	recycled := 0
	// The race detector makes a pool drop a quarter of what is put: hence rounds.
	for round := 0; round < 8; round++ {
		for _, q := range []wireReq{
			{},
			{chunked: true},
			{key: fmt.Sprintf("k-%d", round)},
			{key: fmt.Sprintf("kc-%d", round), chunked: true},
			{async: true},
			{async: true, chunked: true},
		} {
			if code, _, out := (wireReq{token: "tok-a", body: big}).do(t, g); code != http.StatusOK || !bytes.Equal(out, big) {
				t.Fatalf("alpha's 64 KiB echo: status %d, %d bytes", code, len(out))
			}
			alphas := lastBacking
			q.token, q.body = "tok-b", small
			code, _, out := q.do(t, g)
			if code != http.StatusOK || !bytes.Equal(out, small) {
				t.Fatalf("beta's 16 B request %+v: status %d, got %d bytes %.32q; want exactly its own 16", q, code, len(out), out)
			}
			if q.key == "" && !q.async && !q.chunked && lastBacking == alphas {
				recycled++
			}
		}
	}
	if recycled == 0 {
		t.Fatal("beta's un-keyed request never met alpha's buffer: nothing was recycled")
	}
}

// TestRetainedResultsSurviveRecycling: the two results that outlive their
// request — a keyed invoke's in the dedup window, an async invoke's in the
// poll table — are untouched by the recycling that goes on around them.
func TestRetainedResultsSurviveRecycling(t *testing.T) {
	_, g := poolGateway(t, echoHandler, 0)
	srv := httptest.NewServer(g)
	defer srv.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &Client{BaseURL: srv.URL, Token: "tok-a", HTTP: &http.Client{Transport: tr}}

	a := stamped(1, 64<<10)
	if res, err := c.InvokeIdem("f", "kept", a); err != nil || res.Deduped || !bytes.Equal(res.Output, a) {
		t.Fatalf("keyed echo of A: deduped %v, %d bytes, %v", res.Deduped, len(res.Output), err)
	}
	id, err := c.InvokeAsync("f", a)
	if err != nil {
		t.Fatal(err)
	}
	if st := pollDone(t, c, id); st.Status != "succeeded" || !bytes.Equal(st.Output, a) {
		t.Fatalf("async echo of A: %s, %d bytes", st.Status, len(st.Output))
	}
	for i := 0; i < 200; i++ {
		b := stamped(2+i, []int{0, 64, 64 << 10}[i%3])
		if res, err := c.Invoke("f", b); err != nil || !bytes.Equal(res.Output, b) {
			t.Fatalf("un-keyed echo %d of %d B: %d bytes back, %v", i, len(b), len(res.Output), err)
		}
	}
	if res, err := c.InvokeIdem("f", "kept", nil); err != nil || !res.Deduped || !bytes.Equal(res.Output, a) {
		t.Fatalf("replay: deduped %v, %d bytes (A's: %v), %v", res.Deduped, len(res.Output), bytes.Equal(res.Output, a), err)
	}
	if st, err := c.Invocation(id); err != nil || !bytes.Equal(st.Output, a) {
		t.Fatalf("poll after recycling: %d bytes (A's: %v), %v", len(st.Output), bytes.Equal(st.Output, a), err)
	}
}

// TestKeyedBodyPinsOnlyItself: what the dedup window keeps for a keyed 64 B
// echo is a copy of that body, never a pool buffer it happened to be read
// into. With a 64 KiB buffer put back before every one of 2 000 keyed
// requests, the live heap grows by under 300 B a key (64 KiB a key when the
// window kept the output it was handed and a keyed request could draw; it
// copies now, and keyed requests still do not draw: the buffers they would
// leave resting in the pool cost more live heap than the 0.65 allocations
// per op they save). Both readings follow two collections, so sync.Pool
// victims are out of each.
func TestKeyedBodyPinsOnlyItself(t *testing.T) {
	const keys, budget = 2000, 300
	_, g := poolGateway(t, echoHandler, 0)
	big := make([]byte, 64<<10)
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	round := func(i int) {
		if code, _, out := (wireReq{token: "tok-a", body: big}).do(t, g); code != http.StatusOK || len(out) != len(big) {
			t.Fatalf("un-keyed 64 KiB echo: status %d, %d bytes", code, len(out))
		}
		body := stamped(i, 64)
		q := wireReq{token: "tok-a", key: fmt.Sprintf("key-%d", i), body: body}
		if code, h, out := q.do(t, g); code != http.StatusOK || resultOf(t, h).Deduped || !bytes.Equal(out, body) {
			t.Fatalf("keyed echo %d: status %d, result %q, %d bytes", i, code, h.Get(hdrResult), len(out))
		}
	}
	round(-1) // the window's map and the recorder's first buffers exist
	before := liveHeap()
	for i := 0; i < keys; i++ {
		round(i)
	}
	grew := int64(liveHeap()-before) / keys
	t.Logf("live heap grew %d B per keyed 64 B echo held in the dedup window", grew)
	if grew > budget {
		t.Fatalf("live heap grew %d B per keyed 64 B echo, want <= %d", grew, budget)
	}
	for _, i := range []int{0, keys / 2, keys - 1} {
		q := wireReq{token: "tok-a", key: fmt.Sprintf("key-%d", i)}
		if code, h, out := q.do(t, g); code != http.StatusOK || !resultOf(t, h).Deduped || !bytes.Equal(out, stamped(i, 64)) {
			t.Fatalf("replay of key %d: status %d, result %q, its own bytes: %v", i, code, h.Get(hdrResult), bytes.Equal(out, stamped(i, 64)))
		}
	}
}

// TestFinishedAsyncPinsOnlyItself: what the async table keeps for a finished
// 64 B echo is a record and a copy of tenant, ids and output, never the
// request body the output aliased nor a pool buffer. With a 64 KiB buffer put
// back between 2 000 async echoes, each polled to its end, the live heap
// grows by under 200 B a finished record. Both readings follow two
// collections, so sync.Pool victims are out of each. The tracer's span log,
// which grows with every invoke up to its own cap and is budgeted by
// TestPlatformFootprint, is capped at one span, so the growth is the table's.
// Then the first, middle and last ids still poll their own bytes.
func TestFinishedAsyncPinsOnlyItself(t *testing.T) {
	const records, budget = 2000, 200
	p, g := poolGateway(t, echoHandler, 0)
	p.Obs.Tracer().SetMaxSpans(1) // see above
	big := make([]byte, 64<<10)
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	checked := []int{0, records / 2, records - 1}
	ids := map[int]string{} // checked's, which are all this test keeps beyond the gateway
	round := func(i int) {
		if code, _, out := (wireReq{token: "tok-a", body: big}).do(t, g); code != http.StatusOK || len(out) != len(big) {
			t.Fatalf("un-keyed 64 KiB echo: status %d, %d bytes", code, len(out))
		}
		body := stamped(i, 64)
		req := httptest.NewRequest(http.MethodPost, "/v1/functions/f/invoke-async", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer tok-a")
		w := httptest.NewRecorder()
		g.ServeHTTP(w, req)
		id := submittedID(t, w)
		if st := pollWire(t, g, id); st.Status != "succeeded" || !bytes.Equal(st.Output, body) {
			t.Fatalf("async echo %d: %s, its own bytes: %v", i, st.Status, bytes.Equal(st.Output, body))
		}
		if slices.Contains(checked, i) {
			ids[i] = id
		}
	}
	round(-1) // the table's maps, the log's first chunk and the recorder's first buffers exist
	before := liveHeap()
	for i := 0; i < records; i++ {
		round(i)
	}
	grew := int64(liveHeap()-before) / records
	t.Logf("live heap grew %d B per finished 64 B async echo", grew)
	if grew > budget {
		t.Fatalf("live heap grew %d B per finished 64 B async echo, want <= %d", grew, budget)
	}
	for _, i := range checked {
		if st := pollWire(t, g, ids[i]); st.Status != "succeeded" || !bytes.Equal(st.Output, stamped(i, 64)) {
			t.Fatalf("poll of %s: %s, its own bytes: %v", ids[i], st.Status, bytes.Equal(st.Output, stamped(i, 64)))
		}
	}
}

// pollWire polls async invocation id through ServeHTTP until it leaves
// "pending" (5 s at most).
func pollWire(t *testing.T, g *Gateway, id string) InvocationStatus {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		poll := httptest.NewRequest(http.MethodGet, "/v1/invocations/"+id, nil)
		poll.Header.Set("Authorization", "Bearer tok-a")
		pw := httptest.NewRecorder()
		g.ServeHTTP(pw, poll)
		st, err := recordedStatus(id, pw)
		if err != nil {
			t.Fatalf("poll %s: %d %q: %v", id, pw.Code, pw.Body, err)
		}
		if st.Status != "pending" || time.Now().After(deadline) {
			return st
		}
	}
}

// TestBodyPoolConcurrentEcho: 8 clients on a loopback server, 500 requests
// each — un-keyed, keyed and async in turn, bodies of 0 B to 64 KiB and two
// of them past eagerBody, which the pool must not keep — and every
// response is the requester's own stamped body. Refusals are interleaved so
// the error paths put their buffers back too: a declared length over
// MaxBody, a chunked body that runs past it (both 413) and a body that stops
// short of its Content-Length (400). At the end every keyed result, held in
// the dedup window while all of that recycled around it, replays intact.
func TestBodyPoolConcurrentEcho(t *testing.T) {
	const workers, maxBody = 8, eagerBody + 2
	perWorker := 500
	if testing.Short() {
		perWorker = 100
	}
	_, g := poolGateway(t, echoHandler, maxBody)
	srv := httptest.NewServer(g)
	defer srv.Close()
	sizes := []int{0, 1, 64, 4 << 10, 64 << 10}

	// refused sends a request head and what there is of a body on a connection
	// of its own, half-closes, and wants the reply to be status with code.
	refused := func(contentLength int, body, status, code string) error {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			return err
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST /v1/functions/f/invoke HTTP/1.1\r\nHost: gw\r\nAuthorization: Bearer tok-a\r\nContent-Length: %d\r\n\r\n%s", contentLength, body)
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			return err
		}
		reply, err := io.ReadAll(conn)
		if err != nil || !bytes.HasPrefix(reply, []byte("HTTP/1.1 "+status+" ")) || !bytes.Contains(reply, []byte(`"`+code+`"`)) {
			return fmt.Errorf("Content-Length %d with %d bytes sent: reply %.80q, err %v; want %s %s", contentLength, len(body), reply, err, status, code)
		}
		return nil
	}
	// overrun uploads maxBody+1 bytes of unknown length and wants 413.
	overrun := func(hc *http.Client) error {
		body := struct{ io.Reader }{bytes.NewReader(make([]byte, maxBody+1))} // no length for net/http to find
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/functions/f/invoke", body)
		if err != nil {
			return err
		}
		req.Header.Set("Authorization", "Bearer tok-a")
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			return fmt.Errorf("chunked overrun: status %d, want 413", resp.StatusCode)
		}
		return nil
	}
	// asyncEcho submits body and polls its invocation to the end (pollDone
	// without the t.Fatal, which is the test goroutine's to call).
	asyncEcho := func(c *Client, body []byte) ([]byte, error) {
		id, err := c.InvokeAsync("f", body)
		if err != nil {
			return nil, err
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			st, err := c.Invocation(id)
			if err != nil || st.Status == "succeeded" {
				return st.Output, err
			}
			if st.Status != "pending" || time.Now().After(deadline) {
				return nil, fmt.Errorf("async %s is %q", id, st.Status)
			}
		}
	}
	// sizeOf is request i's body size: the cycle (an async body stops at
	// 4 KiB, a cap set when it came back as indented JSON), and for one
	// un-keyed (99) and one keyed (199) request the one size the pool must
	// not keep.
	sizeOf := func(i int) int {
		if i == 99 || i == 199 {
			return eagerBody + 1
		}
		if i%3 == 2 {
			return min(sizes[i%len(sizes)], 4<<10)
		}
		return sizes[i%len(sizes)]
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			c := &Client{BaseURL: srv.URL, Token: "tok-a", HTTP: &http.Client{Transport: tr}}
			errCh <- func() error {
				for i := 0; i < perWorker; i++ {
					seed := w*perWorker + i
					body := stamped(seed, sizeOf(i))
					var res InvokeResult
					var err error
					switch i % 3 {
					case 0:
						res, err = c.Invoke("f", body)
					case 1:
						res, err = c.InvokeIdem("f", fmt.Sprintf("key-%d", seed), body)
					case 2:
						res.Output, err = asyncEcho(c, body)
					}
					if err != nil || !bytes.Equal(res.Output, body) {
						return fmt.Errorf("worker %d request %d (%d B, kind %d): %d bytes back, its own: %v, err %v", w, i, len(body), i%3, len(res.Output), bytes.Equal(res.Output, body), err)
					}
					switch i % 50 {
					case 7:
						err = refused(100, "0123456789", "400", "bad_request")
					case 23:
						err = refused(maxBody+1, "", "413", "payload_too_large")
					case 41:
						if i < 50 {
							err = overrun(c.HTTP)
						}
					}
					if err != nil {
						return fmt.Errorf("worker %d after request %d: %v", w, i, err)
					}
				}
				for i := 1; i < perWorker; i += 3 {
					seed := w*perWorker + i
					want := stamped(seed, sizeOf(i))
					res, err := c.InvokeIdem("f", fmt.Sprintf("key-%d", seed), nil)
					if err != nil || !res.Deduped || !bytes.Equal(res.Output, want) {
						return fmt.Errorf("worker %d replay of request %d (%d B): deduped %v, %d bytes, its own: %v, err %v", w, i, len(want), res.Deduped, len(res.Output), bytes.Equal(res.Output, want), err)
					}
				}
				return nil
			}()
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Error(err)
		}
	}
}
