package gateway

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/faas"
)

// FunctionSpec is the wire form of a function registration: what
// POST /v1/functions accepts. Handler names an executor entry — a builtin
// ("echo", "work", "fail") or a handler the host process bound with
// InProc.Bind — because the gateway ships no code-upload path.
type FunctionSpec struct {
	Name    string            `json:"name"`
	Handler string            `json:"handler"`
	Env     map[string]string `json:"env,omitempty"`

	// Resource and lifecycle knobs, all optional (zero → faas defaults).
	MemoryMB       int   `json:"memory_mb,omitempty"`
	TimeoutMs      int64 `json:"timeout_ms,omitempty"`
	KeepAliveMs    int64 `json:"keepalive_ms,omitempty"`
	ColdStartMs    int64 `json:"cold_start_ms,omitempty"`
	WarmStartMs    int64 `json:"warm_start_ms,omitempty"`
	MaxConcurrency int   `json:"max_concurrency,omitempty"`
	Prewarm        int   `json:"prewarm,omitempty"`
	MaxRetries     int   `json:"max_retries,omitempty"`
}

// faasConfig lowers the spec's wire knobs onto a faas.Config.
func (s FunctionSpec) faasConfig() faas.Config {
	return faas.Config{
		MemoryMB:       s.MemoryMB,
		Timeout:        time.Duration(s.TimeoutMs) * time.Millisecond,
		KeepAlive:      time.Duration(s.KeepAliveMs) * time.Millisecond,
		ColdStart:      time.Duration(s.ColdStartMs) * time.Millisecond,
		WarmStart:      time.Duration(s.WarmStartMs) * time.Millisecond,
		MaxConcurrency: s.MaxConcurrency,
		Prewarm:        s.Prewarm,
		MaxRetries:     s.MaxRetries,
	}
}

// InProc is the in-process executor: a catalog of builtin handlers plus
// whatever the host program binds. Safe for concurrent use.
type InProc struct {
	mu    sync.RWMutex
	bound map[string]faas.Handler
}

// NewInProc returns an executor with only the builtins.
func NewInProc() *InProc {
	return &InProc{bound: make(map[string]faas.Handler)}
}

// Bind registers a named handler implemented by the host process, making it
// referenceable from FunctionSpec.Handler. Later binds overwrite.
func (e *InProc) Bind(name string, h faas.Handler) {
	e.mu.Lock()
	e.bound[name] = h
	e.mu.Unlock()
}

// Resolve returns the handler for spec, or ErrUnknownHandler (wrapped) when
// the spec names nothing the executor can run. Host-bound handlers shadow
// builtins.
func (e *InProc) Resolve(spec FunctionSpec) (faas.Handler, error) {
	e.mu.RLock()
	h, ok := e.bound[spec.Handler]
	e.mu.RUnlock()
	if ok {
		return h, nil
	}
	switch spec.Handler {
	case "echo":
		// Returns the request payload unchanged.
		return func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			return payload, nil
		}, nil
	case "work":
		// Consumes env["ms"] milliseconds of simulated execution time
		// (default 1ms), then echoes env["output"] or the payload.
		ms := int64(1)
		if v, err := strconv.ParseInt(spec.Env["ms"], 10, 64); err == nil && v >= 0 {
			ms = v
		}
		out := []byte(spec.Env["output"])
		return func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			ctx.Work(time.Duration(ms) * time.Millisecond)
			if len(out) > 0 {
				return out, nil
			}
			return payload, nil
		}, nil
	case "fail":
		// Always fails — exercises retry and error-envelope paths.
		return func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			return nil, fmt.Errorf("builtin fail: handler error")
		}, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownHandler, spec.Handler)
}
