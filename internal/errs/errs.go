// Package errs holds the platform-wide sentinel errors shared by every
// plane. It is a leaf package (no imports) so that faas, jiffy, scheduler
// and core can all wrap the same identities: a caller matching with
// errors.Is(err, core.ErrThrottled) gets a hit whether the throttle came
// from a function's concurrency limit or a tenant's admission bucket, and
// capacity exhaustion reads the same whether the scheduler or the Jiffy
// block pool ran dry.
//
// Subsystems keep their historical exported sentinels but define them as
// wrappers around these, preserving both message prefixes and existing
// errors.Is behaviour; core/errs.go re-exports the shared identities as the
// public matching surface.
package errs

import "errors"

var (
	// ErrThrottled marks load shed by an admission control: a function's
	// concurrency cap or a tenant's fair-share token bucket.
	ErrThrottled = errors.New("throttled")

	// ErrBreakerOpen marks a request fast-failed by an open circuit breaker.
	ErrBreakerOpen = errors.New("circuit breaker open")

	// ErrLeaseExpired marks state rejected because its lease lapsed and the
	// platform reclaimed it.
	ErrLeaseExpired = errors.New("lease expired")

	// ErrNoCapacity marks a demand that no machine or memory pool can hold.
	ErrNoCapacity = errors.New("no capacity")
)
