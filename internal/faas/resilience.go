package faas

import (
	"errors"
	"sync"
	"time"

	"repro/internal/obs"
)

// This file is the platform's sync-invoke resilience plane: a per-function
// circuit breaker (closed → open → half-open) that sheds load fast when a
// handler persistently fails, and a capped exponential-backoff retry policy
// with deterministic jitter for callers who want at-least-once semantics on
// the synchronous path. Jangda et al. ("Formal Foundations of Serverless
// Computing") make the case that retry behaviour *is* the observable
// contract of a FaaS platform; this makes ours explicit and testable.

// breakerState is the circuit breaker's position.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// gaugeValue encodes the state for the faas.breaker.state.<fn> gauge:
// 0 closed, 1 open, 0.5 half-open.
func (s breakerState) gaugeValue() float64 {
	switch s {
	case breakerOpen:
		return 1
	case breakerHalfOpen:
		return 0.5
	default:
		return 0
	}
}

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breakerOutcome classifies a gated invocation for breaker accounting.
// Throttles and placement failures are aborted: they carry no signal about
// the handler's health and must not trip or reset the breaker.
type breakerOutcome int

const (
	outcomeSuccess breakerOutcome = iota
	outcomeFailure
	outcomeAborted
)

// breaker is the per-function circuit breaker. While closed it counts
// consecutive handler failures; at the threshold it opens and invocations
// fast-fail without reserving a concurrency slot. After the cooldown a
// single probe runs half-open: success re-closes the breaker, failure
// re-opens it for another cooldown.
type breaker struct {
	mu       sync.Mutex
	state    breakerState
	fails    int // consecutive failures while closed
	openedAt time.Time
	probing  bool // the single half-open probe is in flight
}

// allow reports whether an invocation may proceed; probe is true when this
// invocation is the half-open probe.
func (b *breaker) allow(now time.Time, cooldown time.Duration) (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if now.Sub(b.openedAt) >= cooldown {
			b.state = breakerHalfOpen
			b.probing = true
			return true, true
		}
		return false, false
	default: // half-open: exactly one probe at a time
		if !b.probing {
			b.probing = true
			return true, true
		}
		return false, false
	}
}

// record folds an invocation outcome into the state machine, returning the
// new state and whether it changed.
func (b *breaker) record(out breakerOutcome, probe bool, threshold int, now time.Time) (breakerState, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
		switch out {
		case outcomeSuccess:
			b.state = breakerClosed
			b.fails = 0
			return breakerClosed, true
		case outcomeFailure:
			b.state = breakerOpen
			b.openedAt = now
			return breakerOpen, true
		default:
			return b.state, false // aborted probe: stay half-open
		}
	}
	switch out {
	case outcomeSuccess:
		b.fails = 0
	case outcomeFailure:
		b.fails++
		if b.state == breakerClosed && b.fails >= threshold {
			b.state = breakerOpen
			b.openedAt = now
			return breakerOpen, true
		}
	}
	return b.state, false
}

// recordBreaker applies an outcome to a function's breaker and keeps the
// state gauge and open-transition counter current.
func (p *Platform) recordBreaker(fn *function, out breakerOutcome, probe bool) {
	st, changed := fn.brk.record(out, probe, fn.cfg.BreakerThreshold, p.clock.Now())
	if changed {
		fn.brkGauge.Set(st.gaugeValue())
		if st == breakerOpen {
			p.obsBreakerOpen.Inc()
		}
	}
}

// RetryPolicy configures InvokeWithRetry: capped exponential backoff with
// jitter, slept on the platform clock.
type RetryPolicy struct {
	// MaxAttempts is the total number of executions, including the first.
	// Default 3.
	MaxAttempts int
	// Base is the backoff before the second attempt; it doubles per attempt.
	// Default 100ms.
	Base time.Duration
	// Cap bounds a single backoff. Default 10s.
	Cap time.Duration
	// Jitter is the fraction of each backoff that is randomized (equal
	// jitter: the sleep lands in ((1-Jitter)·d, d]). Default 0.2; negative
	// disables jitter entirely.
	Jitter float64
	// Decide, when non-nil, replaces the default retry predicate: after
	// every attempt it receives the attempt number, its Result and error,
	// and returns whether another attempt should run (MaxAttempts still
	// bounds the loop). Unlike the default predicate it may return true
	// after a *successful* attempt — modelling a client that lost the reply
	// and re-invokes — which is what lets the conformance explorer
	// (internal/conform) drive every attempt boundary as an explicit
	// decision point. Non-retryable platform errors (unknown function,
	// oversized payload, open breaker) still end the loop.
	Decide func(attempt int, res Result, err error) bool
}

func (rp RetryPolicy) withDefaults() RetryPolicy {
	if rp.MaxAttempts <= 0 {
		rp.MaxAttempts = 3
	}
	if rp.Base <= 0 {
		rp.Base = 100 * time.Millisecond
	}
	if rp.Cap <= 0 {
		rp.Cap = 10 * time.Second
	}
	if rp.Jitter == 0 {
		rp.Jitter = 0.2
	}
	if rp.Jitter < 0 {
		rp.Jitter = 0
	}
	if rp.Jitter > 1 {
		rp.Jitter = 1
	}
	return rp
}

// backoffFor returns the un-jittered wait before the given (2-based) attempt.
func (rp RetryPolicy) backoffFor(attempt int) time.Duration {
	d := rp.Base
	for i := 2; i < attempt && d < rp.Cap; i++ {
		d *= 2
	}
	if d > rp.Cap {
		d = rp.Cap
	}
	return d
}

// jittered shaves a random slice (up to frac·d) off d, using the platform's
// seeded rng — deterministic under the virtual clock.
func (p *Platform) jittered(d time.Duration, frac float64) time.Duration {
	if frac <= 0 || d <= 0 {
		return d
	}
	p.rngMu.Lock()
	u := p.rng.Float64()
	p.rngMu.Unlock()
	return d - time.Duration(u*frac*float64(d))
}

// InvokeWithRetry runs tenant's function name synchronously, re-invoking
// failed attempts after a capped exponential backoff with jitter. Errors that
// retrying cannot fix — unknown function, oversized payload, an open circuit
// breaker — return immediately: the breaker exists to shed load, so hammering
// it from the retry loop would defeat the point. Every attempt presents
// idemKey ("" = none), so on a function with a DedupWindow a retry of an
// attempt that actually succeeded (a lost reply) is served from the dedup
// cache instead of re-executing the handler. The returned Result's Attempt
// and RetryWait fields report the attempt that produced it and the total
// backoff slept.
func (p *Platform) InvokeWithRetry(tenant, name, idemKey string, payload []byte, pol RetryPolicy) (Result, error) {
	pol = pol.withDefaults()
	// All attempts share one trace under a retry-wrapper root, mirroring
	// InvokeAsyncFor: a retried request reads as one causal story, not N.
	root := p.obsTracer.Start(obs.TraceCtx{}, "faas.invoke.retry")
	var res Result
	var err error
	var waited time.Duration
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		if attempt > 1 {
			d := p.jittered(pol.backoffFor(attempt), pol.Jitter)
			wspan := p.obsTracer.Start(root.Ctx(), "faas.retry.backoff")
			p.clock.Sleep(d)
			wspan.End()
			waited += d
		}
		res, err = p.invoke(tenant, name, payload, attempt, root.Ctx(), idemKey)
		res.Attempt = attempt
		res.RetryWait = waited
		if pol.Decide != nil {
			if (err != nil && !retryable(err)) || !pol.Decide(attempt, res, err) {
				break
			}
			continue
		}
		if err == nil || !retryable(err) {
			break
		}
	}
	p.obsRetryWait.Observe(waited)
	if root.Active() {
		res.TraceID = root.TraceID()
	}
	root.EndErr(err != nil)
	return res, err
}

// retryable reports whether a retry could plausibly change the outcome.
func retryable(err error) bool {
	return !errors.Is(err, ErrNoFunction) &&
		!errors.Is(err, ErrPayloadSize) &&
		!errors.Is(err, ErrCircuitOpen)
}

// BreakerState reports the current breaker position of tenant's function
// name ("closed", "open", "half-open"); functions without an armed breaker
// are "closed".
func (p *Platform) BreakerState(tenant, name string) (string, error) {
	fn, err := p.lookup(tenant, name)
	if err != nil {
		return "", err
	}
	fn.brk.mu.Lock()
	defer fn.brk.mu.Unlock()
	return fn.brk.state.String(), nil
}
