package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/billing"
)

// Client is a typed caller of the v1 API. The zero fields default sanely
// (http.DefaultClient, no Block wrapper); BaseURL and Token are required, and
// are read once, by the first call. A Client must not be copied after that.
//
// Block, when set, wraps every HTTP round-trip. A driver goroutine tracked
// by the virtual clock MUST set it to Virtual.Outside: the socket wait inside
// Do is a wait on the world beyond the clock, which then holds virtual time
// still while the request or the response is in flight and lets it move only
// while the server side runs the invocation inside Clock.Join. Without it the
// clock counts the client as runnable throughout and the simulation never
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
// body plus the X-Taureau-* metadata headers. Latency and Billed are
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

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// call is everything one request allocates on the client's side of net/http,
// in one piece: the request, its URL and body reader, the backing array of
// its header values, and what the round trip returns.
type call struct {
	c       *Client
	req     http.Request
	url     url.URL
	payload []byte
	body    bytes.Reader
	vals    [3]string // one header value each: Authorization, Content-Type, Idempotency-Key

	resp *http.Response
	out  []byte
	err  error
}

// getBody is the request's GetBody: a fresh reader over the payload, for a
// redirect or a retry on a keep-alive connection the server had closed.
func (k *call) getBody() (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(k.payload)), nil
}

// roundTrip sends the request and reads the whole response body.
func (k *call) roundTrip() {
	k.resp, k.err = k.c.httpClient().Do(&k.req)
	if k.err != nil {
		return
	}
	defer k.resp.Body.Close()
	k.out, k.err = readAllSized(k.resp.Body, k.resp.ContentLength)
}

// do runs one request and returns body and headers. path is unescaped: it is
// assigned to URL.Path, so a name holding "?", "#", "%" or a space reaches the
// server as that name. Non-2xx responses come back as (*APIError, nil body) so
// errors.Is works against platform sentinels across the wire.
func (c *Client) do(method, path, contentType, idemKey string, body []byte) ([]byte, http.Header, error) {
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

	k := &call{c: c, url: c.base, payload: body}
	k.url.Path += path
	// The header is a fresh map per request: RoundTripper wrappers Set on it.
	hdr, n := make(http.Header, len(k.vals)), 0
	set := func(key, v string) {
		k.vals[n] = v
		hdr[key] = k.vals[n : n+1 : n+1]
		n++
	}
	set("Authorization", c.bearer)
	if contentType != "" {
		set("Content-Type", contentType)
	}
	if idemKey != "" {
		set("Idempotency-Key", idemKey)
	}
	k.req = http.Request{
		Method: method, URL: &k.url, Host: k.url.Host, Header: hdr,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}
	if len(body) > 0 {
		k.body.Reset(body)
		// io.NopCloser over a *bytes.Reader is a body net/http knows to be in
		// memory, which it sends in the same write as the request header.
		k.req.Body, k.req.GetBody, k.req.ContentLength = io.NopCloser(&k.body), k.getBody, int64(len(body))
	}

	if c.Block != nil {
		c.Block(k.roundTrip)
	} else {
		k.roundTrip()
	}
	if k.err != nil {
		return nil, nil, k.err
	}
	if k.resp.StatusCode >= 400 {
		return nil, k.resp.Header, decodeError(k.resp.StatusCode, k.out)
	}
	return k.out, k.resp.Header, nil
}

// Register deploys a function from its spec.
func (c *Client) Register(spec FunctionSpec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	_, _, err = c.do(http.MethodPost, "/v1/functions", "application/json", "", body)
	return err
}

// Invoke runs a function synchronously and decodes the result metadata from
// the response headers.
func (c *Client) Invoke(name string, payload []byte) (InvokeResult, error) {
	return c.InvokeIdem(name, "", payload)
}

// InvokeIdem is Invoke carrying an idempotency key.
func (c *Client) InvokeIdem(name, idemKey string, payload []byte) (InvokeResult, error) {
	body, respHdr, err := c.do(http.MethodPost, "/v1/functions/"+name+"/invoke", octetStream, idemKey, payload)
	if err != nil {
		return InvokeResult{}, err
	}
	parseI := func(key string) int64 {
		v, _ := strconv.ParseInt(respHdr.Get(key), 10, 64)
		return v
	}
	return InvokeResult{
		Output:    body,
		Cold:      respHdr.Get(hdrCold) == "true",
		Latency:   time.Duration(parseI(hdrLatencyNs)),
		Billed:    time.Duration(parseI(hdrBilledNs)),
		RequestID: parseI(hdrRequestID),
		TraceID:   parseI(hdrTraceID),
		Attempt:   int(parseI(hdrAttempt)),
		Deduped:   respHdr.Get(hdrDeduped) == "true",
	}, nil
}

// InvokeAsync submits an invocation and returns its id for polling.
func (c *Client) InvokeAsync(name string, payload []byte) (string, error) {
	body, _, err := c.do(http.MethodPost, "/v1/functions/"+name+"/invoke-async", octetStream, "", payload)
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
	body, _, err := c.do(http.MethodGet, "/v1/invocations/"+id, "", "", nil)
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
	body, _, err := c.do(http.MethodGet, "/v1/functions", "", "", nil)
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
	_, _, err := c.do(http.MethodDelete, "/v1/functions/"+name, "", "", nil)
	return err
}

// Invoice fetches the tenant's priced usage.
func (c *Client) Invoice(tenant string) (billing.Invoice, error) {
	body, _, err := c.do(http.MethodGet, "/v1/tenants/"+tenant+"/invoice", "", "", nil)
	if err != nil {
		return billing.Invoice{}, err
	}
	var inv billing.Invoice
	if err := json.Unmarshal(body, &inv); err != nil {
		return billing.Invoice{}, fmt.Errorf("gateway client: bad invoice response: %w", err)
	}
	return inv, nil
}
