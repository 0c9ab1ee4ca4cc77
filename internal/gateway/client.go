package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/billing"
)

// Client is a typed caller of the v1 API. BaseURL and Token are required, and
// are read once, by the first call. A Client must not be copied after that.
//
// Of HTTP a call uses two fields: Transport (http.DefaultTransport when HTTP
// or its Transport is nil) and Timeout, which when set bounds the whole call,
// the body read included. Jar and CheckRedirect are not consulted: the v1 API
// sets no cookie and issues no redirect, so a 3xx is an *APIError like any
// other non-2xx.
//
// Which RoundTripper takes which path is settled by the first call too. A
// Client on http.DefaultTransport, or on an *http.Transport that dials
// directly (no dial hook, no proxy for BaseURL, keep-alives on, and no setting
// but MaxIdleConnsPerHost, MaxIdleConns and IdleConnTimeout that bears on an
// http:// request), speaks HTTP/1.1 itself to an http:// BaseURL: it writes
// each request on a keep-alive connection of its own and reads back only the
// status, the body, X-Taureau-Result and Location. Those connections are
// pooled per Transport and shared by every Client on it, within the
// Transport's idle limits, and are closed when the Transport is collected;
// CloseIdleConnections does not reach them. A dial hook set on
// http.DefaultTransport counts as one. Every other Client — on a RoundTripper
// that wraps the Transport, over TLS or a proxy, with a dial hook, or on a
// package-level Transport variable — sends an *http.Request on the
// RoundTripper directly.
//
// Block, when set, wraps every HTTP round-trip. A driver goroutine tracked
// by the virtual clock MUST set it to Virtual.Outside: the socket wait inside
// the round trip is a wait on the world beyond the clock, which then holds
// virtual time still while the request or the response is in flight and lets
// it move only while the server side runs the invocation inside Clock.Join.
// Without it the clock counts the client as runnable throughout and the
// simulation never advances. Real-clock callers leave it nil.
type Client struct {
	BaseURL string
	Token   string
	HTTP    *http.Client
	Block   func(func())

	once    sync.Once
	base    url.URL // BaseURL, parsed
	baseErr error
	bearer  string    // the Authorization value
	wire    *wirePool // non-nil: the Client speaks HTTP/1.1 itself
	addr    string    // the address it dials
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

// InvocationStatus is Client.Invocation's reading of one async invocation:
// Status is "pending" until it finishes, then "succeeded" with the Output, or
// "failed" with the Error its sync invoke would have returned, and with the
// metadata of the X-Taureau-Result header its poll carries either way.
type InvocationStatus struct {
	ID        string
	Status    string // pending | succeeded | failed
	Output    []byte
	Error     *ErrorBody
	Cold      bool
	LatencyNs int64
	BilledNs  int64
	Attempt   int
}

// reply is what a call keeps of a response, on either path.
type reply struct {
	status           int
	body             []byte
	result, location string // X-Taureau-Result and Location; "" when absent
}

// do runs one request and returns its reply, whose status is 0 only when the
// round trip failed. The path is dir+name+verb under BaseURL's own (path),
// unescaped: a name holding "?", "#", "%" or a space reaches the server as
// that name. Non-2xx responses — a 3xx too: nothing under this follows a
// redirect — come back with a nil body and an *APIError, so errors.Is works
// against platform sentinels across the wire.
func (c *Client) do(method, dir, name, verb, contentType, idemKey string, body []byte) (reply, error) {
	c.once.Do(func() {
		u, err := url.Parse(c.BaseURL)
		if err != nil {
			c.baseErr = err
			return
		}
		c.base, c.bearer = *u, "Bearer "+c.Token
		if c.wire = wirePoolFor(c); c.wire != nil {
			port := u.Port()
			if port == "" {
				port = "80"
			}
			c.addr = net.JoinHostPort(u.Hostname(), port)
		}
	})
	if c.baseErr != nil {
		return reply{}, c.baseErr
	}
	var rep reply
	var err error
	if c.wire != nil {
		rep, err = c.send(wireCall{method, dir, name, verb, contentType, idemKey, body})
	} else {
		rep, err = c.roundTrip(method, c.base.Path+dir+name+verb, contentType, idemKey, body)
	}
	if err != nil {
		return reply{}, fmt.Errorf("gateway client: %s %s: %w", method, c.base.Path+dir+name+verb, err)
	}
	if rep.status < 200 || rep.status > 299 {
		apiErr := decodeError(rep.status, rep.body)
		rep.body = nil
		return rep, apiErr
	}
	return rep, nil
}

// roundTrip sends a request on the Client's RoundTripper and reads the whole
// response body, both inside HTTP.Timeout when there is one.
func (c *Client) roundTrip(method, path, contentType, idemKey string, body []byte) (reply, error) {
	u := c.base
	u.Path = path
	// Function output is opaque bytes the gateway never compresses; saying so
	// spares the Transport its own gzip negotiation on every request.
	req := &http.Request{Method: method, URL: &u, Host: u.Host,
		Header: http.Header{"Authorization": {c.bearer}, "Accept-Encoding": {"identity"}}}
	if contentType != "" {
		req.Header["Content-Type"] = []string{contentType}
	}
	if idemKey != "" {
		req.Header["Idempotency-Key"] = []string{idemKey}
	}
	if len(body) > 0 {
		// A body net/http knows to be in memory, which it sends in the same
		// write as the request header and, through GetBody, sends again on a
		// fresh connection when a keep-alive one was closed under it.
		req.Body, req.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	}
	var rep reply
	var err error
	run := func() {
		rt := http.DefaultTransport
		if h := c.HTTP; h != nil {
			if h.Transport != nil {
				rt = h.Transport
			}
			if h.Timeout > 0 {
				ctx, cancel := context.WithTimeout(context.Background(), h.Timeout)
				defer cancel()
				req = req.WithContext(ctx)
			}
		}
		resp, rtErr := rt.RoundTrip(req)
		if err = rtErr; err != nil {
			return
		}
		defer resp.Body.Close()
		rep = reply{status: resp.StatusCode, result: resp.Header.Get(hdrResult), location: resp.Header.Get("Location")}
		rep.body, err = readAllSized(resp.Body, resp.ContentLength)
	}
	if c.Block != nil {
		c.Block(run)
	} else {
		run()
	}
	return rep, err
}

// Register deploys a function from its spec.
func (c *Client) Register(spec FunctionSpec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	_, err = c.do(http.MethodPost, "/v1/functions", "", "", "application/json", "", body)
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
	rep, err := c.do(http.MethodPost, "/v1/functions/", name, "/invoke", octetStream, idemKey, payload)
	if err != nil {
		return InvokeResult{}, err
	}
	res, ok := parseResult(rep.result)
	if !ok {
		return InvokeResult{}, fmt.Errorf("gateway client: bad result header %q", rep.result)
	}
	res.Output = rep.body
	return res, nil
}

// InvokeAsync submits an invocation and returns its id for Invocation: the
// last segment of the 202's Location, which must be an id as the gateway
// writes them.
func (c *Client) InvokeAsync(name string, payload []byte) (string, error) {
	rep, err := c.do(http.MethodPost, "/v1/functions/", name, "/invoke-async", octetStream, "", payload)
	if err != nil {
		return "", err
	}
	loc := rep.location
	id := loc[strings.LastIndexByte(loc, '/')+1:]
	if _, ok := parseInvID(id); !ok {
		return "", fmt.Errorf("gateway client: bad submit response: Location %q", loc)
	}
	return id, nil
}

// Invocation polls one async invocation. A 202 reads as "pending". Once it
// has finished, the poll answers what its sync invoke would have, with the
// X-Taureau-Result header: a 200 reads as "succeeded" with the output, an
// error envelope as "failed" with that Error and a nil error. An error
// answer without that header is the poll's own failure (401, or 404
// no_invocation for an id unknown, evicted or another tenant's), returned
// as the *APIError.
func (c *Client) Invocation(id string) (InvocationStatus, error) {
	rep, err := c.do(http.MethodGet, pollPath, id, "", "", "", nil)
	return invocationStatus(id, rep, err)
}

// invocationStatus reads a poll of id from what do returned for it. A
// result header that is empty reads as none.
func invocationStatus(id string, rep reply, err error) (InvocationStatus, error) {
	if rep.result == "" {
		switch {
		case err != nil: // the round trip's or the poll's own failure
			return InvocationStatus{}, err
		case rep.status == http.StatusAccepted:
			return InvocationStatus{ID: id, Status: "pending"}, nil
		}
		return InvocationStatus{}, fmt.Errorf("gateway client: bad poll response: status %d without %s", rep.status, hdrResult)
	}
	res, ok := parseResult(rep.result)
	if !ok {
		return InvocationStatus{}, fmt.Errorf("gateway client: bad result header %q", rep.result)
	}
	st := InvocationStatus{
		ID: id, Status: "succeeded",
		Cold: res.Cold, LatencyNs: int64(res.Latency), BilledNs: int64(res.Billed), Attempt: res.Attempt,
	}
	switch apiErr, failed := err.(*APIError); {
	case failed: // the invocation's failure, as its sync invoke would have answered
		st.Status = "failed"
		st.Error = &ErrorBody{Code: apiErr.Code, Message: apiErr.Message, RetryAfterMs: apiErr.RetryAfter.Milliseconds()}
	case rep.status != http.StatusOK:
		return InvocationStatus{}, fmt.Errorf("gateway client: bad poll response: status %d with %s", rep.status, hdrResult)
	case len(rep.body) > 0:
		st.Output = rep.body
	}
	return st, nil
}

// List returns this tenant's functions.
func (c *Client) List() ([]FunctionSummary, error) {
	rep, err := c.do(http.MethodGet, "/v1/functions", "", "", "", "", nil)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Functions []FunctionSummary `json:"functions"`
	}
	if err := json.Unmarshal(rep.body, &resp); err != nil {
		return nil, fmt.Errorf("gateway client: bad list response: %w", err)
	}
	return resp.Functions, nil
}

// Delete unregisters a function.
func (c *Client) Delete(name string) error {
	_, err := c.do(http.MethodDelete, "/v1/functions/", name, "", "", "", nil)
	return err
}

// Invoice fetches the tenant's priced usage.
func (c *Client) Invoice(tenant string) (billing.Invoice, error) {
	rep, err := c.do(http.MethodGet, "/v1/tenants/", tenant, "/invoice", "", "", nil)
	if err != nil {
		return billing.Invoice{}, err
	}
	var inv billing.Invoice
	if err := json.Unmarshal(rep.body, &inv); err != nil {
		return billing.Invoice{}, fmt.Errorf("gateway client: bad invoice response: %w", err)
	}
	return inv, nil
}
