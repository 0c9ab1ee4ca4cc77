//go:build go1.24

package gateway

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
	"weak"
)

// The Client's own HTTP/1.1 path. A Client whose RoundTripper is a plain
// *http.Transport (see wirePoolFor) writes each request on a keep-alive
// connection of its own pool and reads back only what the v1 API answers
// with: the status, the body, X-Taureau-Result and Location. No *http.Request
// or *http.Response is built, and no goroutine waits on a connection.

// wireBufSize is the size of a connection's read buffer, which must hold a
// whole response head, and of its write buffer, which holds a request head
// and, when both fit, its body.
const wireBufSize = 4 << 10

// wirePool holds one *http.Transport's idle connections, for every Client on
// that Transport, as the Transport shares its own: at most maxPerHost per
// address and maxIdle in all (no limit when zero). One idle longer than
// idleTimeout (when set) is closed by the next call that finds it. The pool
// holds no reference to its Transport; when that is collected, it is closed.
type wirePool struct {
	key         weak.Pointer[http.Transport] // its entry in wirePools.m
	dialer      net.Dialer
	maxPerHost  int
	maxIdle     int
	idleTimeout time.Duration

	mu     sync.Mutex
	idle   map[string][]*wireConn // by dial address, the most recently used last
	nidle  int
	closed bool
}

// wirePools maps each Transport that a Client speaks HTTP/1.1 itself over to
// its pool. It is weakly keyed and pins nothing: a Transport that is
// collected has its entry deleted and its idle connections closed.
// http.DefaultTransport, which is never collected, has its own.
var wirePools = struct {
	sync.Mutex
	m    map[weak.Pointer[http.Transport]]*wirePool
	dflt *wirePool
}{m: map[weak.Pointer[http.Transport]]*wirePool{}}

// defaultDial is http.DefaultTransport's own DialContext, for which the own
// path dials with the net.Dialer net/http builds it on; a program that sets
// another keeps net/http.
var defaultDial = func() unsafe.Pointer {
	tr, _ := http.DefaultTransport.(*http.Transport)
	if tr == nil {
		return nil
	}
	return funcID(tr.DialContext)
}()

// funcID is what identifies a func value: its closure.
func funcID(f func(context.Context, string, string) (net.Conn, error)) unsafe.Pointer {
	return *(*unsafe.Pointer)(unsafe.Pointer(&f))
}

// wirePoolFor returns the pool of c's Transport when c can speak HTTP/1.1
// itself over it, and nil when the request must go through net/http. The
// Transport is http.DefaultTransport with its own DialContext, or an
// *http.Transport on the heap with no dial hook; BaseURL is plain http://
// with nothing for the request line to add but the path (no user, query or
// zone) and the token a valid header value; no proxy applies to BaseURL;
// keep-alives are on; and every Transport setting that changes an http://
// request sent directly is one this path honours — MaxIdleConnsPerHost,
// MaxIdleConns, IdleConnTimeout — or zero. TLS settings do not apply to
// http://, nor proxy settings when no proxy does, DisableCompression to a
// request that asks for identity, or ExpectContinueTimeout to one that sends
// no Expect.
func wirePoolFor(c *Client) *wirePool {
	u := &c.base
	if u.Scheme != "http" || u.Opaque != "" || u.User != nil || u.RawQuery != "" || u.ForceQuery || u.Host == "" ||
		strings.IndexFunc(u.Host, func(r rune) bool { return r <= ' ' || r >= 0x7f || r == '%' }) >= 0 || !validHeaderValue(c.Token) {
		return nil
	}
	rt := http.DefaultTransport
	if c.HTTP != nil && c.HTTP.Transport != nil {
		rt = c.HTTP.Transport
	}
	tr, ok := rt.(*http.Transport)
	isDefault := rt == http.DefaultTransport
	if !ok || (tr.DialContext != nil && (!isDefault || funcID(tr.DialContext) != defaultDial)) || tr.Dial != nil || tr.DialTLSContext != nil || tr.DialTLS != nil ||
		tr.DisableKeepAlives || tr.MaxConnsPerHost != 0 || tr.ResponseHeaderTimeout != 0 || tr.MaxResponseHeaderBytes != 0 ||
		tr.WriteBufferSize != 0 || tr.ReadBufferSize != 0 || tr.HTTP2 != nil || tr.Protocols != nil {
		return nil
	}
	if tr.Proxy != nil {
		if proxy, err := tr.Proxy(&http.Request{Method: http.MethodGet, URL: u, Header: http.Header{}, Host: u.Host}); err != nil || proxy != nil {
			return nil
		}
	}

	wirePools.Lock()
	defer wirePools.Unlock()
	if isDefault && wirePools.dflt != nil {
		return wirePools.dflt
	}
	p := &wirePool{maxPerHost: tr.MaxIdleConnsPerHost, maxIdle: tr.MaxIdleConns, idleTimeout: tr.IdleConnTimeout, idle: map[string][]*wireConn{}}
	if p.maxPerHost == 0 {
		p.maxPerHost = http.DefaultMaxIdleConnsPerHost
	}
	if isDefault {
		p.dialer = net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
		wirePools.dflt = p
		return p
	}
	// A Transport off the heap (a package-level variable) can be neither
	// weakly keyed nor cleaned up after: AddCleanup returns the zero Cleanup.
	cleanup := runtime.AddCleanup(tr, dropWirePool, p)
	if cleanup == (runtime.Cleanup{}) {
		return nil
	}
	p.key = weak.Make(tr)
	if q := wirePools.m[p.key]; q != nil {
		cleanup.Stop()
		return q
	}
	wirePools.m[p.key] = p
	return p
}

// dropWirePool deletes a collected Transport's pool and closes its idle
// connections; one in use is closed when it is put back.
func dropWirePool(p *wirePool) {
	wirePools.Lock()
	delete(wirePools.m, p.key)
	wirePools.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, list := range p.idle {
		for _, wc := range list {
			_ = wc.nc.Close()
		}
	}
	p.idle, p.nidle = nil, 0
}

// get returns an idle connection to addr that is still open, with reused
// set, or else dials one. Each idle connection is peeked before it is handed
// out: one the server has closed, or that holds a byte no request asked for,
// is closed instead, as is one idle past the pool's timeout.
func (p *wirePool) get(addr string, deadline time.Time) (wc *wireConn, reused bool, err error) {
	for {
		p.mu.Lock()
		list := p.idle[addr]
		if len(list) == 0 {
			p.mu.Unlock()
			break
		}
		wc, p.idle[addr] = list[len(list)-1], list[:len(list)-1]
		p.nidle--
		p.mu.Unlock()
		if (p.idleTimeout == 0 || time.Since(wc.idleAt) < p.idleTimeout) && wc.alive() {
			return wc, true, nil
		}
		_ = wc.nc.Close()
	}
	wc, err = p.dial(addr, deadline)
	return wc, false, err
}

func (p *wirePool) dial(addr string, deadline time.Time) (*wireConn, error) {
	d := p.dialer
	if !deadline.IsZero() {
		d.Deadline = deadline
	}
	nc, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	wc := &wireConn{addr: addr, nc: nc, br: bufio.NewReaderSize(nc, wireBufSize),
		wbuf: make([]byte, 0, wireBufSize), wrote: make(chan int, 1)}
	if sc, ok := nc.(syscall.Conn); ok {
		wc.raw, _ = sc.SyscallConn()
	}
	wc.peek = func(fd uintptr) bool {
		_, _, wc.peekErr = syscall.Recvfrom(int(fd), wc.peekBuf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		return true // never wait for the socket to become readable
	}
	return wc, nil
}

// put returns a connection whose last exchange left it clean, or closes it
// when the pool is closed or holds as many idle connections as it may.
func (p *wirePool) put(wc *wireConn) {
	if wc.deadline && wc.nc.SetDeadline(time.Time{}) != nil {
		_ = wc.nc.Close()
		return
	}
	wc.deadline = false
	if p.idleTimeout > 0 {
		wc.idleAt = time.Now()
	}
	p.mu.Lock()
	list := p.idle[wc.addr]
	if p.closed || len(list) >= p.maxPerHost || (p.maxIdle > 0 && p.nidle >= p.maxIdle) {
		p.mu.Unlock()
		_ = wc.nc.Close()
		return
	}
	p.idle[wc.addr] = append(list, wc)
	p.nidle++
	p.mu.Unlock()
}

// wireConn is one keep-alive connection with its read and write buffers and
// what peeking it and writing a large body need. One call uses it at a time.
type wireConn struct {
	addr     string
	nc       net.Conn
	br       *bufio.Reader
	wbuf     []byte
	wrote    chan int // the body writer's report: -1, or the bytes it wrote before it failed
	deadline bool     // nc has a deadline set
	idleAt   time.Time

	raw     syscall.RawConn
	peek    func(fd uintptr) bool // one non-blocking MSG_PEEK into peekErr
	peekErr error
	peekBuf [1]byte
}

// alive peeks the idle connection without blocking (MSG_PEEK|MSG_DONTWAIT):
// only "nothing to read yet" means the server still holds it open and has
// sent nothing unasked. EOF, an error or a stray byte mean it must go.
func (wc *wireConn) alive() bool {
	wc.peekErr = nil
	return wc.raw != nil && wc.raw.Read(wc.peek) == nil && wc.peekErr == syscall.EAGAIN
}

// wireCall is one request on the own path.
type wireCall struct {
	method, dir, name, verb, ctype, idKey string
	body                                  []byte
}

// send runs one request on the own path, inside Block when it is set. The
// closure handed to Block captures a copy of k, so that only a Client with
// Block moves its call to the heap.
func (c *Client) send(k wireCall) (reply, error) {
	if !validHeaderValue(k.idKey) {
		return reply{}, fmt.Errorf("net/http: invalid header field value for %q", "Idempotency-Key")
	}
	if c.Block != nil {
		var rep reply
		var err error
		kb := k
		c.Block(func() { rep, err = c.exchange(&kb) })
		return rep, err
	}
	return c.exchange(&k)
}

// exchange sends the request and reads its answer, both inside HTTP.Timeout
// when there is one. It sends a request again, once, on a fresh connection,
// under net/http's own rule: only when a reused connection failed it and
// either none of it was written, or it is a GET or carries an
// Idempotency-Key and the connection closed before any of an answer came.
func (c *Client) exchange(k *wireCall) (reply, error) {
	var deadline time.Time
	if c.HTTP != nil && c.HTTP.Timeout > 0 {
		deadline = time.Now().Add(c.HTTP.Timeout)
	}
	for attempt := 0; ; attempt++ {
		wc, reused, err := c.wire.get(c.addr, deadline)
		if err != nil {
			return reply{}, timeoutError(err, deadline)
		}
		rep, keep, sent, heard, err := wc.roundTrip(c, k, deadline)
		if err == nil && keep {
			c.wire.put(wc)
		} else {
			_ = wc.nc.Close()
		}
		replay := sent == 0 || (sent < 0 && !heard && (k.method == http.MethodGet || k.idKey != ""))
		if err == nil || attempt > 0 || !reused || !replay || isTimeout(err) {
			return rep, timeoutError(err, deadline)
		}
	}
}

// roundTrip writes the request and reads the answer on wc. sent is how many
// bytes of the request went out, -1 for all of them; heard says a byte of an
// answer came; keep says the connection is clean for the next request.
func (wc *wireConn) roundTrip(c *Client, k *wireCall, deadline time.Time) (rep reply, keep bool, sent int, heard bool, err error) {
	if !deadline.IsZero() {
		if err := wc.nc.SetDeadline(deadline); err != nil {
			return reply{}, false, 0, false, err
		}
		wc.deadline = true
	}
	head := appendHead(wc.wbuf[:0], c, k)
	writing := len(head)+len(k.body) > cap(wc.wbuf)
	if writing {
		// A body past the buffer is written while the answer is read, so
		// that one the server sends before it has read the body (a 401 for
		// a bad token) comes back at once.
		go wc.write(head, k.body)
	} else if n, err := wc.nc.Write(append(head, k.body...)); err != nil {
		return reply{}, false, n, false, err
	}
	sent = -1
	h, heard, err := readResponse(wc.br)
	if writing {
		done := false
		if err == nil && h.keep {
			sent, done = wc.awaitWrite()
		}
		if !done {
			_ = wc.nc.Close() // the writer stops at once; the payload is then the caller's again
			h.keep, sent = false, <-wc.wrote
		}
	}
	if err != nil {
		return reply{}, false, sent, heard, err
	}
	return h.reply, h.keep && sent < 0 && wc.br.Buffered() == 0, sent, heard, nil
}

// awaitWrite waits for the body writer after a complete answer, as net/http's
// Transport does before it reuses a connection: at most 50 ms. A server that
// answered without reading the whole body leaves the writer blocked.
func (wc *wireConn) awaitWrite() (sent int, done bool) {
	select {
	case sent = <-wc.wrote:
		return sent, true
	default:
	}
	t := time.NewTimer(50 * time.Millisecond)
	defer t.Stop()
	select {
	case sent = <-wc.wrote:
		return sent, true
	case <-t.C:
		return 0, false
	}
}

// write sends a request whose body does not fit the write buffer.
func (wc *wireConn) write(head, body []byte) {
	n, err := wc.nc.Write(head)
	if err == nil {
		m, err := wc.nc.Write(body)
		if n += m; err == nil {
			n = -1
		}
	}
	wc.wrote <- n
}

// appendHead writes the request line and header, as net/http writes them for
// the request that the fallback path builds: net/http's User-Agent, the path
// escaped as url.URL.EscapedPath escapes it, a Content-Length on every POST.
func appendHead(b []byte, c *Client, k *wireCall) []byte {
	b = append(append(b, k.method...), ' ')
	for _, s := range [...]string{c.base.Path, k.dir, k.name, k.verb} {
		for i := 0; i < len(s); i++ {
			if ch := s[i]; 'a' <= ch && ch <= 'z' || 'A' <= ch && ch <= 'Z' || '0' <= ch && ch <= '9' || strings.IndexByte("-_.~$&+,/:;=@", ch) >= 0 {
				b = append(b, ch)
			} else {
				b = append(b, '%', "0123456789ABCDEF"[ch>>4], "0123456789ABCDEF"[ch&15])
			}
		}
	}
	b = append(append(b, " HTTP/1.1\r\nHost: "...), c.base.Host...)
	b = append(append(b, "\r\nUser-Agent: Go-http-client/1.1\r\nAuthorization: "...), c.bearer...)
	b = append(b, "\r\nAccept-Encoding: identity"...)
	if k.ctype != "" {
		b = append(append(b, "\r\nContent-Type: "...), k.ctype...)
	}
	if k.idKey != "" {
		b = append(append(b, "\r\nIdempotency-Key: "...), k.idKey...)
	}
	if len(k.body) > 0 || k.method == http.MethodPost {
		b = strconv.AppendInt(append(b, "\r\nContent-Length: "...), int64(len(k.body)), 10)
	}
	return append(b, "\r\n\r\n"...)
}

// validHeaderValue is net/http's rule for a header value: no control byte
// but a tab.
func validHeaderValue[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if b := s[i]; (b < ' ' && b != '\t') || b == 0x7f {
			return false
		}
	}
	return true
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// timeoutError reads a connection's deadline error as net/http reads an
// expired HTTP.Timeout: context.DeadlineExceeded, a net.Error whose Timeout
// is true.
func timeoutError(err error, deadline time.Time) error {
	if err != nil && !deadline.IsZero() && isTimeout(err) {
		return fmt.Errorf("%w (Client.Timeout exceeded): %w", context.DeadlineExceeded, err)
	}
	return err
}

// respHead is what the Client keeps of a response head, and how its body is
// framed: by length (0 for a 204 or 304), chunked, or by the server's close.
type respHead struct {
	reply
	length  int64 // -1 when chunked or until close
	chunked bool
	keep    bool // the connection may carry the next request
}

var errBadAnswer = errors.New("malformed or unsupported response")

// readResponse reads one answer, head and body; heard says a byte of it
// came. It refuses what it cannot read exactly — a head over 4 KiB, HTTP/1.0,
// an interim 1xx, a bare LF, a folded or malformed header line, more than one
// Content-Length or Transfer-Encoding or both, chunk extensions or trailers
// — where http.ReadResponse might still accept it; never the reverse.
func readResponse(br *bufio.Reader) (h respHead, heard bool, err error) {
	if _, err = br.Peek(1); err != nil {
		return h, false, err
	}
	if h, err = readHead(br); err == nil {
		switch {
		case h.chunked:
			h.body, err = readChunked(br)
		case h.length >= 0:
			h.body, err = readN(br, make([]byte, 0, min(h.length, eagerBody)), h.length)
		default:
			h.body, err = io.ReadAll(br)
		}
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return h, true, err
}

// readLine reads a line that ends in CRLF, and returns it without.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull || (err == nil && (len(line) < 2 || line[len(line)-2] != '\r')) {
		err = errBadAnswer
	}
	if err != nil {
		return nil, err
	}
	return line[:len(line)-2], nil
}

func readHead(br *bufio.Reader) (h respHead, err error) {
	line, err := readLine(br)
	if err != nil {
		return h, err
	}
	if len(line) < 12 || string(line[:9]) != "HTTP/1.1 " || (len(line) > 12 && line[12] != ' ') || !validHeaderValue(line) {
		return h, errBadAnswer
	}
	status, err := strconv.ParseUint(string(line[9:12]), 10, 16)
	if err != nil || status < 200 || status > 599 {
		return h, errBadAnswer
	}
	size := len(line)
	h.status, h.length = int(status), -1
	var closeTok, haveLength, haveResult, haveLocation bool
	for {
		if line, err = readLine(br); err != nil {
			return h, err
		}
		if size += len(line) + 2; size > wireBufSize {
			return h, errBadAnswer
		}
		if len(line) == 0 {
			break
		}
		key, val, ok := bytes.Cut(line, []byte{':'})
		if !ok || len(key) == 0 || bytes.IndexFunc(key, notTokenRune) >= 0 || !validHeaderValue(val) {
			return h, errBadAnswer
		}
		val = bytes.Trim(val, " \t")
		switch {
		case asciiFold(key, "Content-Length"):
			n, err := strconv.ParseUint(string(val), 10, 63)
			if err != nil || haveLength {
				return h, errBadAnswer
			}
			h.length, haveLength = int64(n), true
		case asciiFold(key, "Transfer-Encoding"):
			if h.chunked || !asciiFold(val, "chunked") {
				return h, errBadAnswer
			}
			h.chunked = true
		case asciiFold(key, "Connection"):
			closeTok = closeTok || hasToken(val, "close")
		case asciiFold(key, "Trailer"):
			return h, errBadAnswer
		case asciiFold(key, hdrResult) && !haveResult:
			h.result, haveResult = string(val), true
		case asciiFold(key, "Location") && !haveLocation:
			h.location, haveLocation = string(val), true
		}
	}
	h.keep = !closeTok
	switch noBody := h.status == http.StatusNoContent || h.status == http.StatusNotModified; {
	case h.chunked && (haveLength || noBody):
		return h, errBadAnswer
	case noBody:
		h.length = 0
	case !h.chunked && !haveLength: // the body runs to the server's close
		h.keep = false
	}
	return h, nil
}

// notTokenRune says r may not be in a header name (RFC 7230 §3.2.6).
func notTokenRune(r rune) bool {
	return !('a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9' || strings.ContainsRune("!#$%&'*+-.^_`|~", r))
}

// asciiFold says b is the ASCII s but for case: one of the same byte length
// that folds to it holds no multi-byte rune.
func asciiFold(b []byte, s string) bool { return len(b) == len(s) && strings.EqualFold(string(b), s) }

// hasToken says a comma-separated header value holds tok, as net/http reads
// Connection.
func hasToken(v []byte, tok string) bool {
	for more := true; more; {
		var t []byte
		t, v, more = bytes.Cut(v, []byte{','})
		if asciiFold(bytes.Trim(t, " \t"), tok) {
			return true
		}
	}
	return false
}

// readChunked reads a chunked body: chunks of "HEX CRLF data CRLF", then
// "0 CRLF CRLF".
func readChunked(br *bufio.Reader) ([]byte, error) {
	body := []byte{}
	for {
		line, err := readLine(br)
		if err != nil {
			return nil, err
		}
		size, err := strconv.ParseUint(string(line), 16, 62)
		if err != nil || len(line) > 16 {
			return nil, errBadAnswer
		}
		if body, err = readN(br, body, int64(size)); err != nil {
			return nil, err
		}
		if end, err := readLine(br); err != nil || len(end) != 0 {
			return nil, errBadAnswer
		}
		if size == 0 {
			return body, nil
		}
	}
}

// readN appends the next n bytes to body, which grows at most 64 KiB past
// the bytes that have come.
func readN(br *bufio.Reader, body []byte, n int64) ([]byte, error) {
	for n > 0 {
		step := int(min(n, 64<<10))
		body = slices.Grow(body, step)
		m, err := io.ReadFull(br, body[len(body):len(body)+step])
		body = body[:len(body)+m]
		if err != nil {
			return nil, err
		}
		n -= int64(step)
	}
	return body, nil
}
