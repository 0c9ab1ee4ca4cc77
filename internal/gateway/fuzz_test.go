package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
)

// FuzzRegisterRequest: POST /v1/functions is where outside bytes reach two
// parsers — the bearer token and the FunctionSpec JSON — and then the
// platform. Whatever the Authorization value and body, ServeHTTP must not
// panic and must answer 201 with the name it registered under the token's
// tenant, or a 4xx envelope whose code and status are a row of the wire
// table. Seeded from CI's gateway-smoke script and the validation tests.
func FuzzRegisterRequest(f *testing.F) {
	const token, tenant = "ci-token", "ci"
	for _, seed := range []struct{ auth, body string }{
		{"Bearer ci-token", `{"name":"hello","handler":"echo","memory_mb":128}`},
		{"Bearer ci-token", `{"name":"w","handler":"work","env":{"ms":"5","output":"ok"},"timeout_ms":50,"keepalive_ms":60000,"cold_start_ms":1,"warm_start_ms":1,"max_concurrency":4,"prewarm":2,"max_retries":-1}`},
		{"Bearer   ci-token  ", `{"name":"f","handler":"fail"}`},
		{"Bearer ci-token", `{"name":"victim/f","handler":"echo"}`},
		{"Bearer ci-token", `{"name":"f","handler":"echo","prewarm":1000000000}`},
		{"Bearer ci-token", `{"name":"f","handler":"cobol"}`},
		{"Bearer ci-token", `{"name": "f", `},
		{"Bearer ci-token", ``},
		{"Bearer other", `{"name":"hello","handler":"echo"}`},
		{"bearer ci-token", `{"name":"hello","handler":"echo"}`},
		{"Basic Y2k6Y2k=", `{}`},
		{"", `null`},
	} {
		f.Add(seed.auth, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, auth string, body []byte) {
		gw := New(core.New(core.Options{}), Config{Tokens: map[string]string{token: tenant}, Executor: NewInProc()})
		req := httptest.NewRequest(http.MethodPost, "/v1/functions", bytes.NewReader(body))
		req.Header["Authorization"] = []string{auth}
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)

		if rec.Code == http.StatusCreated {
			var spec FunctionSpec
			var got map[string]string
			if err := json.Unmarshal(body, &spec); err != nil {
				t.Fatalf("201 for a body that is not a spec: %v", err)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got["name"] != spec.Name || got["tenant"] != tenant {
				t.Fatalf("201 body %q (err %v), want name %q under tenant %q", rec.Body, err, spec.Name, tenant)
			}
			if fns := gw.p.Tenant(tenant).Functions(); len(fns) != 1 || fns[0].Name != spec.Name {
				t.Fatalf("201 but the tenant's functions are %+v", fns)
			}
			return
		}
		var env Envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("status %d with a body that is no envelope: %q (%v)", rec.Code, rec.Body, err)
		}
		row, ok := codeTable[env.Error.Code]
		if !ok || rec.Code < 400 || rec.Code > 499 || row.Status != rec.Code {
			t.Fatalf("status %d code %q: not a 4xx row of the wire table", rec.Code, env.Error.Code)
		}
		if fns := gw.p.Tenant(tenant).Functions(); len(fns) != 0 {
			t.Fatalf("status %d but the tenant has functions %+v", rec.Code, fns)
		}
	})
}

// FuzzResultHeader: X-Taureau-Result is formatted by the gateway and parsed
// from outside bytes by the client, by one function each. Any faas.Result
// formats to a value that parses back to the same seven fields; arbitrary
// bytes never panic the parser, and whatever it accepts formats to the
// canonical value, which parses to the same again. The seeds pin the grammar:
// members in any order and unknown integer or boolean members are accepted; a
// missing, repeated, empty, mistyped or overflowing one is refused.
func FuzzResultHeader(f *testing.F) {
	const canonical = "request-id=812, attempt=1, latency-ns=1042, billed-ns=1000000, trace-id=4411, cold=?0, deduped=?1"
	want := InvokeResult{RequestID: 812, Attempt: 1, Latency: 1042, Billed: time.Millisecond, TraceID: 4411, Deduped: true}
	for _, seed := range []struct {
		raw string
		ok  bool
	}{
		{canonical, true},
		{"deduped=?1, cold=?0, trace-id=4411, billed-ns=1000000, latency-ns=1042, attempt=1, request-id=812", true},
		{"request-id=812,attempt=1,\tlatency-ns=1042 ,  billed-ns=1000000,trace-id=4411,cold=?0,deduped=?1", true},
		{"region=3, " + canonical + ", throttled=?0, queue-ns=-7", true},
		{"request-id=0812, attempt=01, latency-ns=1042, billed-ns=1000000, trace-id=4411, cold=?0, deduped=?1", true},
		{"", false},
		{"request-id=812", false},
		{canonical + ", attempt=1", false},     // repeated
		{canonical + ",", false},               // empty member
		{canonical + ", =1", false},            // empty key
		{canonical + ", note=\"a, b\"", false}, // not an integer or a boolean
		{canonical + ", flag", false},          // a bare key
		{canonical + ";v=2", false},            // parameters
		{"request-id=, attempt=1, latency-ns=1042, billed-ns=1000000, trace-id=4411, cold=?0, deduped=?1", false},
		{"request-id=812, attempt=1, latency-ns=abc, billed-ns=1000000, trace-id=4411, cold=?0, deduped=?1", false},
		{"request-id=+812, attempt=1, latency-ns=1042, billed-ns=1000000, trace-id=4411, cold=?0, deduped=?1", false},
		{"request-id=9223372036854775808, attempt=1, latency-ns=1042, billed-ns=1000000, trace-id=4411, cold=?0, deduped=?1", false},
		{"request-id=812, attempt=1, latency-ns=1042, billed-ns=1000000, trace-id=4411, cold=0, deduped=?1", false},
		{"request-id=?1, attempt=1, latency-ns=1042, billed-ns=1000000, trace-id=4411, cold=?0, deduped=?1", false},
		{"request-id=812, attempt=1, latency-ns=1042, billed-ns=1000000, trace-id=4411, cold=?2, deduped=?1", false},
		{"request-id=812, attempt=1, latency-ns=1042, billed-ns=1000000, trace-id=4411, cold=?0, deduped=true", false},
	} {
		got, ok := parseResult(seed.raw)
		if ok != seed.ok || (ok && !reflect.DeepEqual(got, want)) {
			f.Errorf("parseResult(%q) = %+v, %v; want %+v, %v", seed.raw, got, ok, want, seed.ok)
		}
		f.Add(seed.raw, int64(812), int64(1042), int64(1000000), int64(4411), 1, false, true)
	}
	f.Add(canonical, int64(math.MaxInt64), int64(math.MinInt64), int64(-1), int64(0), math.MaxInt32, true, true)

	f.Fuzz(func(t *testing.T, raw string, requestID, latency, billed, traceID int64, attempt int, cold, deduped bool) {
		res := faas.Result{
			RequestID: requestID, Attempt: attempt, Latency: time.Duration(latency), Billed: time.Duration(billed),
			TraceID: traceID, Cold: cold, Deduped: deduped,
		}
		value := string(appendResult(nil, &res))
		got, ok := parseResult(value)
		if want := (InvokeResult{RequestID: requestID, Attempt: attempt, Latency: res.Latency, Billed: res.Billed, TraceID: traceID, Cold: cold, Deduped: deduped}); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v formats to %q, which parses to %+v, %v", res, value, got, ok)
		}

		got, ok = parseResult(raw)
		if !ok {
			return
		}
		res = faas.Result{
			RequestID: got.RequestID, Attempt: got.Attempt, Latency: got.Latency, Billed: got.Billed,
			TraceID: got.TraceID, Cold: got.Cold, Deduped: got.Deduped,
		}
		value = string(appendResult(nil, &res))
		again, ok := parseResult(value)
		if !ok || !reflect.DeepEqual(again, got) {
			t.Fatalf("%q parses to %+v, which formats to %q, which parses to %+v, %v", raw, got, value, again, ok)
		}
	})
}

// FuzzInvocationID: a poll's path id is outside bytes that parseInvID reads
// without allocating. It must never panic; an id that parses formats back to
// the very string it came from, so no two strings name one invocation; and
// every positive id formats to the gateway's "inv-%06d" and parses back.
func FuzzInvocationID(f *testing.F) {
	for _, seed := range []string{
		"inv-000001", "inv-999999", "inv-1000000", "inv-9223372036854775807",
		"inv-9223372036854775808", "inv-0000001", "inv-+00001", "inv--00001", "inv-1",
		"inv-000000", "inv-00000a", "inv-", "INV-000001", "", "inv-000001 ", "inv-١٢٣٤٥٦",
	} {
		f.Add(seed, int64(len(seed)))
	}
	f.Add("inv-000042", int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, s string, id int64) {
		if n, ok := parseInvID(s); ok {
			if back := string(formatInvID(nil, n)); back != s || n <= 0 {
				t.Fatalf("%q parses to %d, which formats to %q", s, n, back)
			}
		}
		if id <= 0 {
			return
		}
		s = string(formatInvID(nil, id))
		if want := fmt.Sprintf("inv-%06d", id); s != want {
			t.Fatalf("%d formats to %q, want %q", id, s, want)
		}
		if n, ok := parseInvID(s); !ok || n != id {
			t.Fatalf("%d formats to %q, which parses to %d, %v", id, s, n, ok)
		}
	})
}

// gatewayAnswers are the raw bytes of every answer shape the gateway writes,
// as a real server sends them: a register's 201, the sync invoke's 200, the
// submit's empty 202 with Location, the poll's 200 once it has finished, an
// error envelope small enough for a Content-Length, one over 2 KiB that
// net/http chunks, and a delete's 204.
func gatewayAnswers(tb testing.TB) [][]byte {
	srv := httptest.NewServer(New(core.New(core.Options{}), Config{Tokens: map[string]string{"tok-a": "alpha"}}))
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	answer := func(method, path, body, want string) []byte {
		req := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: gw\r\nAuthorization: Bearer tok-a\r\nContent-Length: %d\r\n\r\n%s", method, path, len(body), body)
		if _, err := io.WriteString(conn, req); err != nil {
			tb.Fatal(err)
		}
		var raw bytes.Buffer
		resp, err := http.ReadResponse(bufio.NewReader(io.TeeReader(br, &raw)), nil)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
		}
		// Nothing follows the answer on the connection until the next request,
		// so the tee holds exactly its bytes.
		if err != nil || !strings.Contains(raw.String(), want) {
			tb.Fatalf("%s %s: %v, answer %q lacks %q", method, path, err, raw.String(), want)
		}
		return raw.Bytes()
	}
	spec, _ := json.Marshal(fastSpec("f"))
	seeds := [][]byte{
		answer("POST", "/v1/functions", string(spec), "201 Created"),
		answer("POST", "/v1/functions/f/invoke", strings.Repeat("x", 64), hdrResult),
		answer("POST", "/v1/functions/f/invoke-async", "in", "Location: /v1/invocations/"),
	}
	time.Sleep(50 * time.Millisecond) // the async echo is long done
	seeds = append(seeds,
		answer("GET", "/v1/invocations/inv-000001", "", hdrResult),
		answer("POST", "/v1/functions/ghost/invoke", "", "Content-Length"),
		answer("POST", "/v1/functions/"+strings.Repeat("g", 3000)+"/invoke", "", "Transfer-Encoding: chunked"),
		answer("DELETE", "/v1/functions/f", "", "204 No Content"),
	)
	return seeds
}

// FuzzClientResponse: the Client's own response reader against
// http.ReadResponse, the bytes a server sends read as the answer to a GET
// and to a POST. The own reader may refuse an answer net/http accepts, never
// the reverse; where both accept, they agree on the status, the framing
// (Content-Length, chunked, or to the close), the body, X-Taureau-Result,
// Location and whether the connection may carry another request.
func FuzzClientResponse(f *testing.F) {
	for _, seed := range gatewayAnswers(f) {
		if _, _, err := readResponse(bufio.NewReaderSize(bytes.NewReader(seed), wireBufSize)); err != nil {
			f.Fatalf("the own reader refuses the gateway's answer %q: %v", seed, err)
		}
		f.Add(seed)
	}
	f.Add([]byte("HTTP/1.1 401 Unauthorized\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nConnection: x, close\r\n\r\nto the close"))
	f.Add([]byte("HTTP/1.1 304 Not Modified\r\nContent-Length: 9\r\nLocation: /a\r\n\r\n"))
	f.Fuzz(func(t *testing.T, answer []byte) {
		own, _, ownErr := readResponse(bufio.NewReaderSize(bytes.NewReader(answer), wireBufSize))
		body := own.body
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(answer)), &http.Request{Method: method})
			var stdBody []byte
			if err == nil {
				stdBody, err = io.ReadAll(resp.Body)
			}
			if ownErr != nil {
				continue // the own reader may refuse more
			}
			if err != nil {
				t.Fatalf("%s: the own reader accepted %q, net/http refused it: %v", method, answer, err)
			}
			chunked := slices.Equal(resp.TransferEncoding, []string{"chunked"})
			framed := own.chunked == chunked && (own.chunked || own.length == resp.ContentLength)
			if own.status != resp.StatusCode || !framed || !bytes.Equal(body, stdBody) ||
				own.result != resp.Header.Get(hdrResult) || own.location != resp.Header.Get("Location") || own.keep == resp.Close {
				t.Fatalf("%s %q:\nown     %+v, body %q\nnet/http status %d, length %d, chunked %v, body %q, result %q, location %q, close %v",
					method, answer, own, body, resp.StatusCode, resp.ContentLength, chunked, stdBody,
					resp.Header.Get(hdrResult), resp.Header.Get("Location"), resp.Close)
			}
		}
	})
}
