// The errs→HTTP contract lives in this file and nowhere else: one ordered
// table maps every typed sentinel the platform can surface to exactly one
// HTTP status and one machine-readable code, and the same table drives the
// reverse direction (code → sentinel) so a client that decodes an error
// envelope gets back an error that errors.Is-matches the sentinel the server
// returned — the wire round-trips error identity, not just prose.
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/errs"
	"repro/internal/faas"
)

// Gateway-local sentinels: failures that originate in the HTTP layer itself
// rather than in a platform plane.
var (
	// ErrUnauthorized marks a request with a missing or unknown bearer token.
	ErrUnauthorized = errors.New("gateway: missing or invalid bearer token")
	// ErrBadRequest marks a syntactically invalid request (malformed JSON,
	// missing required fields).
	ErrBadRequest = errors.New("gateway: malformed request")
	// ErrUnknownHandler marks a register request naming a handler the
	// executor cannot materialize.
	ErrUnknownHandler = errors.New("gateway: unknown handler")
	// ErrNoInvocation marks a poll for an invocation id that does not exist
	// in the calling tenant's namespace (like functions, invocations are
	// unprobeable across tenants: not-yours reads as not-found).
	ErrNoInvocation = errors.New("gateway: no such invocation")
	// ErrNoTenant marks a tenant-scoped read (invoice) for a tenant the
	// caller's token does not own. 404, not 403: an authenticated caller
	// cannot learn which other tenant names exist.
	ErrNoTenant = errors.New("gateway: no such tenant")
)

// wireMapping is one row of the errs→HTTP contract. Whether a row's error
// carries a Retry-After header is not a column: faas.ClassOf decides it.
type wireMapping struct {
	Err    error
	Status int
	Code   string
}

// wireTable is the single source of truth for error translation, ordered
// most-specific first: subsystem sentinels that wrap a shared identity
// (faas.ErrTenantThrottled wraps errs.ErrThrottled) must precede the
// identity they wrap, or every tenant shed would decode as a generic
// throttle. statusFor walks it with errors.Is; codeTable inverts it.
var wireTable = []wireMapping{
	// Gateway-layer failures.
	{ErrUnauthorized, http.StatusUnauthorized, "unauthorized"},
	{ErrUnknownHandler, http.StatusBadRequest, "unknown_handler"},
	{ErrBadRequest, http.StatusBadRequest, "bad_request"},
	{ErrNoInvocation, http.StatusNotFound, "no_invocation"},
	{ErrNoTenant, http.StatusNotFound, "no_tenant"},

	// FaaS sentinels (specific forms first).
	{faas.ErrTenantThrottled, http.StatusTooManyRequests, "tenant_throttled"},
	{faas.ErrNoFunction, http.StatusNotFound, "no_function"},
	{faas.ErrExists, http.StatusConflict, "function_exists"},
	{faas.ErrPayloadSize, http.StatusRequestEntityTooLarge, "payload_too_large"},
	{faas.ErrTimeout, http.StatusGatewayTimeout, "execution_timeout"},

	// Platform-wide identities (internal/errs). Every sentinel defined there
	// must appear here — TestWireTableExhaustive parses the errs source and
	// fails the build when a new sentinel lands without a mapping.
	{errs.ErrThrottled, http.StatusTooManyRequests, "throttled"},
	{errs.ErrLeaseExpired, http.StatusGone, "lease_expired"},
	{errs.ErrNoCapacity, http.StatusServiceUnavailable, "no_capacity"},
}

// codeTable maps a wire code back to the most specific sentinel that emits
// it (first table occurrence wins).
var codeTable = func() map[string]wireMapping {
	m := make(map[string]wireMapping, len(wireTable))
	for _, w := range wireTable {
		if _, ok := m[w.Code]; !ok {
			m[w.Code] = w
		}
	}
	return m
}()

// statusFor resolves err against the contract. Unmapped errors — handler
// application errors, mostly — fall through to 500 "internal".
func statusFor(err error) wireMapping {
	if i := wireIndex(err); i >= 0 {
		return wireTable[i]
	}
	return wireMapping{Err: err, Status: http.StatusInternalServerError, Code: "internal"}
}

// wireIndex is the first wireTable row err matches, or -1 for none.
func wireIndex(err error) int {
	for i, w := range wireTable {
		if errors.Is(err, w.Err) {
			return i
		}
	}
	return -1
}

// Envelope is the JSON error body every non-2xx gateway response carries.
type Envelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the machine-readable half of the contract: Code comes from
// the wire table; Message is prose for humans.
type ErrorBody struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// retryAfterMs is the backoff hint attached to an error whose class is
// errs.RetryAfter (shed load). The admission plane sheds instead of queueing
// once its bounds are hit, so any constant short hint is honest; 1s matches
// the token-bucket refill horizon.
const retryAfterMs = 1000

// writeError renders err as its contractual status + JSON envelope.
func writeError(w http.ResponseWriter, err error) {
	writeEnvelope(w, statusFor(err), err.Error(), faas.ClassOf(err) == errs.RetryAfter)
}

// writeEnvelope renders an error of row m with message msg, and the back-off
// hint, in the envelope and in Retry-After, when its class is errs.RetryAfter.
// An async invocation's failure is answered from what its record kept of these.
func writeEnvelope(w http.ResponseWriter, m wireMapping, msg string, retryAfter bool) {
	body := Envelope{Error: ErrorBody{Code: m.Code, Message: msg}}
	if retryAfter {
		body.Error.RetryAfterMs = retryAfterMs
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterMs/1000))
	}
	w.Header()["Content-Type"] = valJSON
	w.WriteHeader(m.Status)
	_ = json.NewEncoder(w).Encode(body)
}

// APIError is the client-side decoding of an error envelope. Unwrap returns
// the sentinel its code maps to, so errors.Is against faas/errs sentinels
// works across the wire exactly as it does in-process.
type APIError struct {
	Status  int
	Code    string
	Message string
	// RetryAfter is the server's back-off hint on shed load (the envelope's
	// retry_after_ms); zero when it sent none.
	RetryAfter time.Duration
}

// Error renders the wire error.
func (e *APIError) Error() string {
	return fmt.Sprintf("gateway: %s (http %d, code %q)", e.Message, e.Status, e.Code)
}

// Unwrap maps the wire code back to its sentinel identity.
func (e *APIError) Unwrap() error {
	if w, ok := codeTable[e.Code]; ok {
		return w.Err
	}
	return nil
}

// decodeError turns a non-2xx response body into an *APIError. Bodies that
// are not a valid envelope (a crash page, a proxy error) still produce a
// usable APIError with code "internal".
func decodeError(status int, body []byte) *APIError {
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		return &APIError{Status: status, Code: "internal", Message: string(body)}
	}
	return &APIError{
		Status: status, Code: env.Error.Code, Message: env.Error.Message,
		RetryAfter: time.Duration(env.Error.RetryAfterMs) * time.Millisecond,
	}
}
