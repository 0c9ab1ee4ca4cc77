// Package errs holds the platform-wide sentinel errors shared by every
// plane. It is a leaf package (no imports) so that faas, jiffy, scheduler
// and core can all wrap the same identities: a caller matching with
// errors.Is(err, errs.ErrThrottled) gets a hit whether the throttle came
// from a function's concurrency limit or a tenant's admission bucket, and
// capacity exhaustion reads the same whether the scheduler or the Jiffy
// block pool ran dry.
//
// Subsystems keep their historical exported sentinels but define them as
// wrappers around these, preserving both message prefixes and existing
// errors.Is behaviour.
package errs

import "errors"

var (
	// ErrThrottled marks load shed by an admission control: a function's
	// concurrency cap or a tenant's fair-share token bucket.
	ErrThrottled = errors.New("throttled")

	// ErrLeaseExpired marks state rejected because its lease lapsed and the
	// platform reclaimed it.
	ErrLeaseExpired = errors.New("lease expired")

	// ErrNoCapacity marks a demand that no machine or memory pool can hold.
	ErrNoCapacity = errors.New("no capacity")
)

// Class says who, if anyone, retries a failed request. faas.ClassOf maps
// every error identity to exactly one class; its retry loop and the
// gateway's Retry-After header both read that one table.
type Class int

const (
	// RetryNow: the failure may clear on its own, so the platform's retry
	// loop retries it on its backoff. An error no row classifies is RetryNow.
	RetryNow Class = iota
	// RetryAfter: load was shed. The platform never retries it itself —
	// that would amplify the overload being shed — and the wire sends
	// Retry-After so the caller can come back later.
	RetryAfter
	// Permanent: no attempt can change the outcome; nobody retries and no
	// hint is sent.
	Permanent
)
