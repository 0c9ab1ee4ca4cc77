package gateway

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/faas"
	"repro/internal/scheduler"
	"repro/internal/simclock"
)

// errsSentinels maps every exported sentinel in internal/errs by name. When
// a new sentinel lands there, TestWireTableExhaustive finds its name via the
// parser and fails until it is added both here and to wireTable — the test
// cannot silently go stale.
var errsSentinels = map[string]error{
	"ErrThrottled":    errs.ErrThrottled,
	"ErrLeaseExpired": errs.ErrLeaseExpired,
	"ErrNoCapacity":   errs.ErrNoCapacity,
}

// TestWireTableExhaustive parses the internal/errs source and asserts every
// exported Err* sentinel has a wire mapping with a machine-readable code.
func TestWireTableExhaustive(t *testing.T) {
	fset := token.NewFileSet()
	pkgAST, err := parser.ParseFile(fset, "../errs/errs.go", nil, 0)
	if err != nil {
		t.Fatalf("parse internal/errs: %v", err)
	}
	var names []string
	for _, decl := range pkgAST.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, id := range vs.Names {
				if strings.HasPrefix(id.Name, "Err") && ast.IsExported(id.Name) {
					names = append(names, id.Name)
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("parser found no exported Err* sentinels in internal/errs — wrong path?")
	}
	for _, name := range names {
		sentinel, ok := errsSentinels[name]
		if !ok {
			t.Errorf("errs.%s has no entry in errsSentinels — add it here and to wireTable", name)
			continue
		}
		m := statusFor(sentinel)
		if m.Code == "internal" {
			t.Errorf("errs.%s has no wire mapping (fell through to 500 internal)", name)
		}
		if m.Status < 400 || m.Status > 599 {
			t.Errorf("errs.%s maps to non-error status %d", name, m.Status)
		}
	}
	// And the inverse is total: every code decodes back to some sentinel.
	for _, w := range wireTable {
		if _, ok := codeTable[w.Code]; !ok {
			t.Errorf("code %q missing from codeTable", w.Code)
		}
		if w.Code == "" || w.Code == "internal" {
			t.Errorf("mapping for %v has reserved/empty code %q", w.Err, w.Code)
		}
	}
}

// TestStatusForSpecificity: wrapped subsystem sentinels must resolve to
// their specific row, not the identity they wrap.
func TestStatusForSpecificity(t *testing.T) {
	cases := []struct {
		err      error
		wantCode string
	}{
		{faas.ErrTenantThrottled, "tenant_throttled"},
		{faas.ErrThrottled, "throttled"},
		{errs.ErrThrottled, "throttled"},
		{errors.New("some handler error"), "internal"},
	}
	for _, c := range cases {
		if got := statusFor(c.err).Code; got != c.wantCode {
			t.Errorf("statusFor(%v).Code = %q, want %q", c.err, got, c.wantCode)
		}
	}
}

// TestUnplaceableColdStartIsNoCapacity: the error of a cold start whose
// demand fits no machine even when empty maps to 503 no_capacity with no
// Retry-After: the request can never succeed, so it is not a throttle.
func TestUnplaceableColdStartIsNoCapacity(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := faas.New(v, nil)
	p.AttachCluster(scheduler.NewCluster(scheduler.Resources{CPU: 1000, MemMB: 1024}, scheduler.FirstFit{}), 0)
	huge := func(ctx *faas.Ctx, in []byte) ([]byte, error) { return in, nil }
	if err := p.Register("huge", "t", huge, faas.Config{Demand: scheduler.Resources{CPU: 2000, MemMB: 512}}); err != nil {
		t.Fatal(err)
	}
	var err error
	v.Run(func() { _, err = p.InvokeFor("t", "huge", nil) })
	if err == nil {
		t.Fatal("an unplaceable cold start succeeded")
	}
	m := statusFor(err)
	retryAfter := faas.ClassOf(err) == errs.RetryAfter
	if m.Status != http.StatusServiceUnavailable || m.Code != "no_capacity" || retryAfter {
		t.Fatalf("statusFor(%v) = %d %q RetryAfter=%v, want 503 \"no_capacity\" without Retry-After",
			err, m.Status, m.Code, retryAfter)
	}
}

// TestErrorEnvelopeRoundTrip serializes every wire-table sentinel through
// writeError and decodes it with decodeError: the decoded error must
// errors.Is-match the original sentinel — error identity round-trips the
// wire, not just the status code.
func TestErrorEnvelopeRoundTrip(t *testing.T) {
	for _, w := range wireTable {
		rec := httptest.NewRecorder()
		writeError(rec, w.Err)
		if rec.Code != w.Status {
			t.Errorf("%q: status = %d, want %d", w.Code, rec.Code, w.Status)
		}
		decoded := decodeError(rec.Code, rec.Body.Bytes())
		if !errors.Is(decoded, w.Err) {
			t.Errorf("%q: decoded error %v does not errors.Is-match %v", w.Code, decoded, w.Err)
		}
	}
	// Garbage bodies still decode to a usable APIError.
	garbage := decodeError(http.StatusBadGateway, []byte("<html>proxy error</html>"))
	if garbage.Code != "internal" || garbage.Status != http.StatusBadGateway {
		t.Errorf("garbage body decoded to %+v", garbage)
	}
}

// TestRetryAfterSet pins which wire codes tell the caller to come back: a
// Retry-After header, and the envelope's retry_after_ms, go out with exactly
// the rows faas.ClassOf calls errs.RetryAfter (shed load), and with no other
// row and no unmapped handler error.
func TestRetryAfterSet(t *testing.T) {
	want := map[string]bool{"tenant_throttled": true, "throttled": true}
	got := map[string]bool{}
	send := func(err error) (code string, retryAfter bool) {
		rec := httptest.NewRecorder()
		writeError(rec, err)
		header := rec.Header().Get("Retry-After") != ""
		decoded := decodeError(rec.Code, rec.Body.Bytes())
		if header != (decoded.RetryAfter > 0) {
			t.Errorf("%q: Retry-After header %v but retry_after_ms %v", decoded.Code, header, decoded.RetryAfter)
		}
		return decoded.Code, header
	}
	for _, w := range wireTable {
		if code, retryAfter := send(w.Err); retryAfter {
			got[code] = true
		}
	}
	if !maps.Equal(got, want) {
		t.Fatalf("codes sent with Retry-After = %v, want %v", got, want)
	}
	if code, retryAfter := send(errors.New("some handler error")); retryAfter {
		t.Fatalf("%q sent with Retry-After", code)
	}
}

// TestErrorsIsOverTheWire drives a real error through the full HTTP stack —
// live listener, Client, envelope decode — and checks errors.Is against the
// platform sentinel on the far side.
func TestErrorsIsOverTheWire(t *testing.T) {
	_, srv := newRealGateway(t, nil)
	c := &Client{BaseURL: srv.URL, Token: "tok-a"}

	_, err := c.Invoke("ghost", nil)
	if !errors.Is(err, faas.ErrNoFunction) {
		t.Fatalf("invoke(ghost) = %v, want errors.Is ErrNoFunction", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != "no_function" {
		t.Fatalf("wire error = %+v, want 404 no_function", apiErr)
	}

	if err := c.Register(FunctionSpec{Name: "f", Handler: "no-such-builtin"}); !errors.Is(err, ErrUnknownHandler) {
		t.Fatalf("register(bad handler) = %v, want errors.Is ErrUnknownHandler", err)
	}
}
