// Typed sentinel errors, unified across planes. Every plane wraps the same
// underlying identities (internal/errs), so callers match with errors.Is
// against the re-exports here without caring which subsystem shed, timed
// out or reclaimed:
//
//	res, err := tenant.Invoke("fn", payload)
//	switch {
//	case errors.Is(err, core.ErrNoCapacity):  // demand fits no machine, or a finite fleet is full (then also throttled)
//	case errors.Is(err, core.ErrThrottled):   // admission or concurrency shed
//	case errors.Is(err, core.ErrBreakerOpen): // circuit breaker fast-fail
//	}
//
// The per-subsystem sentinels (faas.ErrThrottled, jiffy.ErrNoCapacity,
// scheduler.ErrUnplaceable, …) remain and still match — they wrap these.
package core

import "repro/internal/errs"

var (
	// ErrThrottled: the request was shed by admission control — a tenant's
	// fair-share token bucket or a function's concurrency cap.
	ErrThrottled = errs.ErrThrottled
	// ErrBreakerOpen: a per-function circuit breaker fast-failed the call.
	ErrBreakerOpen = errs.ErrBreakerOpen
	// ErrLeaseExpired: the ephemeral state's lease lapsed and it was
	// reclaimed.
	ErrLeaseExpired = errs.ErrLeaseExpired
	// ErrNoCapacity: no machine or memory pool can hold the demand.
	ErrNoCapacity = errs.ErrNoCapacity
)
