package faas

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/errs"
	"repro/internal/obs"
	"repro/internal/scheduler"
)

// This file is the platform's invoke resilience plane: a per-function
// circuit breaker (closed → open → half-open) that sheds load fast when a
// handler persistently fails; the one capped exponential-backoff retry loop
// with deterministic jitter behind every at-least-once caller
// (InvokeWithRetry, InvokeAsyncFor, and through InvokeWithRetry each
// orchestrated step); and the one class table (ClassOf) that decides who
// retries an error — this loop, the caller after a Retry-After, or nobody.
// Jangda et al. ("Formal Foundations of Serverless Computing") make the case
// that retry behaviour *is* the observable contract of a FaaS platform; this
// makes ours explicit and testable.

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
func (p *platform) recordBreaker(fn *function, out breakerOutcome, probe bool) {
	st, changed := fn.brk.record(out, probe, fn.cfg.BreakerThreshold, p.clock.Now())
	if changed {
		fn.brkGauge.Set(st.gaugeValue())
		if st == breakerOpen {
			p.obsBreakerOpen.Inc()
		}
	}
}

// RetryPolicy configures InvokeWithRetry: exponential backoff (doubling from
// Base, each wait capped at retryCap) with jitter, slept on the platform clock.
type RetryPolicy struct {
	// MaxAttempts is the total number of executions, including the first.
	// Default 3.
	MaxAttempts int
	// Base is the backoff before the second attempt; it doubles per attempt.
	// Default 100ms.
	Base time.Duration
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
	// decision point. An error ClassOf does not call RetryNow still ends
	// the loop.
	Decide func(attempt int, res Result, err error) bool
}

const (
	// retryCap bounds a single backoff, sync or async.
	retryCap = 10 * time.Second
	// retryJitter is the default randomized fraction of each backoff, so a
	// burst of failed invocations does not re-execute in lockstep.
	retryJitter = 0.2
	// asyncRetryBase is the backoff before the first async re-execution
	// (providers space retries out so transient failures can clear).
	asyncRetryBase = 500 * time.Millisecond
)

func (rp RetryPolicy) withDefaults() RetryPolicy {
	if rp.MaxAttempts <= 0 {
		rp.MaxAttempts = 3
	}
	if rp.Base <= 0 {
		rp.Base = 100 * time.Millisecond
	}
	if rp.Jitter == 0 {
		rp.Jitter = retryJitter
	}
	if rp.Jitter < 0 {
		rp.Jitter = 0
	}
	if rp.Jitter > 1 {
		rp.Jitter = 1
	}
	return rp
}

// jittered shaves a random slice (up to frac·d) off d, using the platform's
// seeded rng — deterministic under the virtual clock.
func (p *platform) jittered(d time.Duration, frac float64) time.Duration {
	if frac <= 0 || d <= 0 {
		return d
	}
	p.rngMu.Lock()
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(0x7a05))
	}
	u := p.rng.Float64()
	p.rngMu.Unlock()
	return d - time.Duration(u*frac*float64(d))
}

// InvokeWithRetry runs tenant's function name synchronously, re-invoking
// failed attempts after a capped exponential backoff with jitter; an error
// ClassOf does not call RetryNow returns at once. Every attempt presents
// idemKey ("" = none), so on a function with a DedupWindow a retry of an
// attempt that actually succeeded (a lost reply) is served from the dedup
// cache instead of re-executing the handler. A zero tc roots a new trace at
// the retry span; a valid tc (an orchestrate step) makes it the caller's
// child. The returned Result's Attempt and RetryWait fields report the
// attempt that produced it and the total backoff slept.
func (p *Platform) InvokeWithRetry(tenant, name, idemKey string, payload []byte, tc obs.TraceCtx, pol RetryPolicy) (Result, error) {
	return p.invokeRetrying("faas.invoke.retry", tenant, name, idemKey, payload, tc, pol.withDefaults())
}

// InvokeAsyncFor runs tenant's function name on its own goroutine,
// transparently re-executing it on failure — same loop and stop rule as
// InvokeWithRetry — up to the function's MaxRetries (§4.1: "most FaaS
// platforms re-execute functions transparently on failure"). done, if
// non-nil, receives the final result; its Attempt and RetryWait fields
// surface how many executions it took and how long the retries backed off in
// total.
func (p *Platform) InvokeAsyncFor(tenant, name string, payload []byte, done func(Result, error)) {
	p.clock.Go(func() {
		pol := RetryPolicy{MaxAttempts: 1, Base: asyncRetryBase, Jitter: retryJitter}
		if fn, err := p.lookup(tenant, name); err == nil {
			pol.MaxAttempts += fn.cfg.MaxRetries
		}
		res, err := p.invokeRetrying("faas.invoke.async", tenant, name, "", payload, obs.TraceCtx{}, pol)
		if done != nil {
			done(res, err)
		}
	})
}

// invokeRetrying is the platform's one attempt/backoff loop. All attempts
// share one span named rootName under parent — each execution and each
// backoff sleep is its child — so a retried request reads as one causal story
// (attempt 1 failing, the wait, attempt 2 …), not N. It retries only a
// RetryNow error. pol arrives with its defaults applied and is passed by
// value: the loop allocates nothing per attempt.
func (p *platform) invokeRetrying(rootName, tenant, name, idemKey string, payload []byte, parent obs.TraceCtx, pol RetryPolicy) (Result, error) {
	root := p.obsTracer.Start(parent, rootName)
	var res Result
	var err error
	var waited time.Duration
	backoff := pol.Base
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		if attempt > 1 {
			d := p.jittered(min(backoff, retryCap), pol.Jitter)
			wspan := p.obsTracer.Start(root.Ctx(), "faas.retry.backoff")
			p.clock.Sleep(d)
			wspan.End()
			waited += d
			if backoff < retryCap {
				backoff *= 2
			}
		}
		res, err = p.invoke(tenant, name, payload, attempt, root.Ctx(), idemKey)
		res.Attempt = attempt
		res.RetryWait = waited
		if err != nil && ClassOf(err) != errs.RetryNow {
			break
		}
		if pol.Decide != nil {
			if !pol.Decide(attempt, res, err) {
				break
			}
		} else if err == nil {
			break
		}
	}
	p.obsRetryWait.Observe(waited)
	if root.Active() {
		res.TraceID = root.TraceID()
	}
	root.EndLabeled(tenant, name, err != nil)
	return res, err
}

// classTable is the platform's one retry classification, read through
// ClassOf by the retry loop above and by the gateway's Retry-After header.
// The first row an error matches (errors.Is) decides its class.
var classTable = []struct {
	err   error
	class errs.Class
}{
	// Nothing changes between attempts: an unknown or duplicate function, an
	// oversized payload, a demand no machine can fit, a reclaimed lease.
	{ErrNoFunction, errs.Permanent},
	{ErrExists, errs.Permanent},
	{ErrPayloadSize, errs.Permanent},
	{scheduler.ErrUnplaceable, errs.Permanent},
	{errs.ErrLeaseExpired, errs.Permanent},
	// Shed load — a function's concurrency cap, a tenant's bucket, a full
	// machine, an open breaker. Retrying from inside the platform would
	// amplify exactly the overload being shed (a retry storm), so only the
	// caller retries, after the Retry-After the wire sends.
	{errs.ErrThrottled, errs.RetryAfter},
	{errs.ErrBreakerOpen, errs.RetryAfter},
}

// ClassOf classifies err for retrying: the class of the first classTable row
// it matches, or errs.RetryNow — a handler error, a timeout, a crashed
// attempt — when it matches none.
func ClassOf(err error) errs.Class {
	for _, row := range classTable {
		if errors.Is(err, row.err) {
			return row.class
		}
	}
	return errs.RetryNow
}
