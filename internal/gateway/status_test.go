package gateway

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/faas"
)

// errsSentinels maps every exported sentinel in internal/errs by name. When
// a new sentinel lands there, TestWireTableExhaustive finds its name via the
// parser and fails until it is added both here and to wireTable — the test
// cannot silently go stale.
var errsSentinels = map[string]error{
	"ErrThrottled":    errs.ErrThrottled,
	"ErrBreakerOpen":  errs.ErrBreakerOpen,
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
		{faas.ErrCircuitOpen, "breaker_open"},
		{errs.ErrThrottled, "throttled"},
		{errors.New("some handler error"), "internal"},
	}
	for _, c := range cases {
		if got := statusFor(c.err).Code; got != c.wantCode {
			t.Errorf("statusFor(%v).Code = %q, want %q", c.err, got, c.wantCode)
		}
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
		if w.RetryAfter && rec.Header().Get("Retry-After") == "" {
			t.Errorf("%q: throttle-class error missing Retry-After header", w.Code)
		}
	}
	// Garbage bodies still decode to a usable APIError.
	garbage := decodeError(http.StatusBadGateway, []byte("<html>proxy error</html>"))
	if garbage.Code != "internal" || garbage.Status != http.StatusBadGateway {
		t.Errorf("garbage body decoded to %+v", garbage)
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
