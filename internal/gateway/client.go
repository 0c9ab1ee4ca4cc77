package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"sync"
	"time"

	"repro/internal/billing"
)

// Client is a typed caller of the v1 API. BaseURL and Token are required, and
// are read once, by the first call. A Client must not be copied after that.
//
// Of HTTP a call uses two fields: Transport, on which it sends the request
// directly (http.DefaultTransport when HTTP or its Transport is nil), and
// Timeout, which when set bounds the whole call, the body read included. Jar
// and CheckRedirect are not consulted: the v1 API sets no cookie and issues no
// redirect, so a 3xx is an *APIError like any other non-2xx, and http.Client.Do
// is not paid to prepare for either on every request.
//
// A call's request state is pooled and recycled only under an *http.Transport
// (the default), over HTTP/1.x, on a connection kept for the next request.
// Any other RoundTripper may keep what it is handed, so under one, as under
// HTTP/2 or after a failed call, nothing is recycled.
//
// Block, when set, wraps every HTTP round-trip. A driver goroutine tracked
// by the virtual clock MUST set it to Virtual.Outside: the socket wait inside
// RoundTrip is a wait on the world beyond the clock, which then holds virtual
// time still while the request or the response is in flight and lets it move
// only while the server side runs the invocation inside Clock.Join. Without it
// the clock counts the client as runnable throughout and the simulation never
// advances. Real-clock callers leave it nil.
type Client struct {
	BaseURL string
	Token   string
	HTTP    *http.Client
	Block   func(func())

	once    sync.Once
	base    url.URL // BaseURL, parsed
	baseErr error
	bearer  string // the Authorization value
}

// InvokeResult is the client-side decoding of a sync invoke response: the
// body plus the X-Taureau-Result metadata header. Latency and Billed are
// platform-clock figures — under a virtual clock, exact simulated durations.
type InvokeResult struct {
	Output    []byte
	Cold      bool
	Latency   time.Duration
	Billed    time.Duration
	RequestID int64
	TraceID   int64
	Attempt   int
	Deduped   bool
}

// call is one request's state on the client's side of net/http, drawn from
// callPool with its request (over a context that carries its trace), header
// map, body reader and bound funcs built once: of its own a request allocates
// only its path and what it returns.
type call struct {
	c       *Client
	req     *http.Request
	trace   httptrace.ClientTrace
	url     url.URL
	vals    [4]string // one header value each: Authorization, Accept-Encoding, Content-Type, Idempotency-Key
	payload []byte
	body    bytes.Reader
	bodyRC  io.ReadCloser                 // io.NopCloser(&body)
	getBody func() (io.ReadCloser, error) // k.rewind
	run     func()                        // k.roundTrip

	// pooled says the round trip went to an *http.Transport, and idle that its
	// trace saw PutIdleConn(nil): the Transport is done with the request.
	pooled, idle bool
	resp         *http.Response
	out          []byte
	err          error
}

// callPool recycles calls across requests and Clients, zeroed on Put.
var callPool = sync.Pool{New: func() any {
	k := new(call)
	k.trace.PutIdleConn = func(err error) { k.idle = err == nil }
	ctx := httptrace.WithClientTrace(context.Background(), &k.trace)
	k.req = (&http.Request{URL: &k.url, Header: http.Header{}, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}).WithContext(ctx)
	k.bodyRC, k.getBody, k.run = io.NopCloser(&k.body), k.rewind, k.roundTrip
	return k
}}

// putCall zeroes every field a request set, so no Client's token, key, path
// or payload reaches the call's next request, and returns the call to the pool.
func putCall(k *call) {
	r := k.req
	r.Method, r.Host, r.Body, r.GetBody, r.ContentLength = "", "", nil, nil, 0
	clear(r.Header)
	k.c, k.url, k.vals, k.payload = nil, url.URL{}, [4]string{}, nil
	k.body.Reset(nil)
	k.pooled, k.idle, k.resp, k.out, k.err = false, false, nil, nil, nil
	callPool.Put(k)
}

// rewind is the request's GetBody: a fresh reader over the payload, for the
// Transport's retry on a keep-alive connection the server had closed.
func (k *call) rewind() (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(k.payload)), nil
}

// roundTrip sends the request on the Transport and reads the whole response
// body, both inside HTTP.Timeout when there is one.
func (k *call) roundTrip() {
	rt, req := http.DefaultTransport, k.req
	if h := k.c.HTTP; h != nil {
		if h.Transport != nil {
			rt = h.Transport
		}
		if h.Timeout > 0 {
			ctx, cancel := context.WithTimeout(req.Context(), h.Timeout)
			defer cancel()
			req = req.WithContext(ctx)
		}
	}
	// A RoundTripper that wraps the Transport may keep the request; only the
	// Transport's own word that it is done with it lets the call be reused.
	_, k.pooled = rt.(*http.Transport)
	k.resp, k.err = rt.RoundTrip(req)
	if k.err != nil {
		return
	}
	defer k.resp.Body.Close()
	k.out, k.err = readAllSized(k.resp.Body, k.resp.ContentLength)
}

// do runs one request and returns body and headers. The path is dir+name+verb
// under BaseURL's own, joined here so that a call builds one path string. It
// is unescaped: it is assigned to URL.Path, so a name holding "?", "#", "%" or
// a space reaches the server as that name. Non-2xx responses — a 3xx too:
// nothing under this follows a redirect — come back as (*APIError, nil body)
// so errors.Is works against platform sentinels across the wire.
//
// The call goes back to callPool only when its trace saw PutIdleConn(nil),
// which the Transport's read loop calls after the request is fully written and
// the response read to its end, before it releases the caller's last Read; it
// then only cancels the request's context and deletes the pointer from its
// CancelRequest table, reading no field. Any other call is left to the GC.
func (c *Client) do(method, dir, name, verb, contentType, idemKey string, body []byte) ([]byte, http.Header, error) {
	c.once.Do(func() {
		u, err := url.Parse(c.BaseURL)
		if err != nil {
			c.baseErr = err
			return
		}
		c.base, c.bearer = *u, "Bearer "+c.Token
	})
	if c.baseErr != nil {
		return nil, nil, c.baseErr
	}

	k := callPool.Get().(*call)
	k.c, k.url, k.payload = c, c.base, body
	k.url.Path = c.base.Path + dir + name + verb
	r := k.req
	r.Method, r.Host = method, k.url.Host
	n := 0
	set := func(key, v string) {
		k.vals[n] = v
		r.Header[key] = k.vals[n : n+1 : n+1]
		n++
	}
	set("Authorization", c.bearer)
	// Function output is opaque bytes the gateway never compresses; saying so
	// spares the Transport its own gzip negotiation on every request.
	set("Accept-Encoding", "identity")
	if contentType != "" {
		set("Content-Type", contentType)
	}
	if idemKey != "" {
		set("Idempotency-Key", idemKey)
	}
	if len(body) > 0 {
		k.body.Reset(body)
		// io.NopCloser over a *bytes.Reader is a body net/http knows to be in
		// memory, which it sends in the same write as the request header.
		r.Body, r.GetBody, r.ContentLength = k.bodyRC, k.getBody, int64(len(body))
	}

	if c.Block != nil {
		c.Block(k.run)
	} else {
		k.run()
	}
	if k.err != nil {
		return nil, nil, fmt.Errorf("gateway client: %s %s: %w", method, k.url.Path, k.err)
	}
	out, resp := k.out, k.resp
	if k.pooled && k.idle {
		putCall(k)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, resp.Header, decodeError(resp.StatusCode, out)
	}
	return out, resp.Header, nil
}

// Register deploys a function from its spec.
func (c *Client) Register(spec FunctionSpec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	_, _, err = c.do(http.MethodPost, "/v1/functions", "", "", "application/json", "", body)
	return err
}

// Invoke runs a function synchronously and decodes the result metadata from
// the response's X-Taureau-Result header; a 200 without a well-formed one is
// an error, not a zero result.
func (c *Client) Invoke(name string, payload []byte) (InvokeResult, error) {
	return c.InvokeIdem(name, "", payload)
}

// InvokeIdem is Invoke carrying an idempotency key.
func (c *Client) InvokeIdem(name, idemKey string, payload []byte) (InvokeResult, error) {
	body, respHdr, err := c.do(http.MethodPost, "/v1/functions/", name, "/invoke", octetStream, idemKey, payload)
	if err != nil {
		return InvokeResult{}, err
	}
	res, ok := parseResult(respHdr.Get(hdrResult))
	if !ok {
		return InvokeResult{}, fmt.Errorf("gateway client: bad result header %q", respHdr.Get(hdrResult))
	}
	res.Output = body
	return res, nil
}

// InvokeAsync submits an invocation and returns its id for polling.
func (c *Client) InvokeAsync(name string, payload []byte) (string, error) {
	body, _, err := c.do(http.MethodPost, "/v1/functions/", name, "/invoke-async", octetStream, "", payload)
	if err != nil {
		return "", err
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", fmt.Errorf("gateway client: bad submit response: %w", err)
	}
	return resp.ID, nil
}

// Invocation polls one async invocation's status.
func (c *Client) Invocation(id string) (InvocationStatus, error) {
	body, _, err := c.do(http.MethodGet, "/v1/invocations/", id, "", "", "", nil)
	if err != nil {
		return InvocationStatus{}, err
	}
	var st InvocationStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return InvocationStatus{}, fmt.Errorf("gateway client: bad poll response: %w", err)
	}
	return st, nil
}

// List returns this tenant's functions.
func (c *Client) List() ([]FunctionSummary, error) {
	body, _, err := c.do(http.MethodGet, "/v1/functions", "", "", "", "", nil)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Functions []FunctionSummary `json:"functions"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("gateway client: bad list response: %w", err)
	}
	return resp.Functions, nil
}

// Delete unregisters a function.
func (c *Client) Delete(name string) error {
	_, _, err := c.do(http.MethodDelete, "/v1/functions/", name, "", "", "", nil)
	return err
}

// Invoice fetches the tenant's priced usage.
func (c *Client) Invoice(tenant string) (billing.Invoice, error) {
	body, _, err := c.do(http.MethodGet, "/v1/tenants/", tenant, "/invoice", "", "", nil)
	if err != nil {
		return billing.Invoice{}, err
	}
	var inv billing.Invoice
	if err := json.Unmarshal(body, &inv); err != nil {
		return billing.Invoice{}, fmt.Errorf("gateway client: bad invoice response: %w", err)
	}
	return inv, nil
}
