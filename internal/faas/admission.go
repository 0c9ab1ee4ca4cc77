package faas

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/billing"
	"repro/internal/errs"
	"repro/internal/obs"
)

// Admission is the platform's tenant-facing ingress control (§2, §6
// "SLA Guarantees"): a fair-share token bucket per tenant, with bounded
// queuing and load shedding, so one tenant's burst cannot starve another's
// steady traffic. Each tenant's bucket refills at an equal share of the
// platform rate, RatePerSecond / (tenants seen); a request that finds no
// token either queues (deterministically, by reserving a future token and
// sleeping until its refill instant) or — when the projected wait exceeds
// MaxWait or the tenant's queue bound is full — is shed with ErrThrottled
// before any instance capacity is consumed. Sheds are counted per tenant in obs
// (faas.admission.shed.<tenant>) and metered to billing
// (billing.ResShedRequests), so throttling is visible on the invoice.

// AdmissionConfig enables per-tenant admission on a Platform.
type AdmissionConfig struct {
	// RatePerSecond is the total admitted request rate, shared equally by
	// the tenants seen so far. Required (> 0).
	RatePerSecond float64
	// Burst is each tenant's bucket depth: how many requests above the
	// steady-state rate it may fire instantaneously. Default 10.
	Burst float64
	// MaxQueue bounds how many of a tenant's requests may wait for a token
	// at once; arrivals beyond it are shed. Default 64.
	MaxQueue int
	// MaxWait bounds the projected token wait; a request that would wait
	// longer is shed immediately (no goodput is gained by queueing it).
	// Default 1s.
	MaxWait time.Duration
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.Burst <= 0 {
		c.Burst = 10
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxWait <= 0 {
		c.MaxWait = time.Second
	}
	return c
}

// tenantBucket is one tenant's admission state. Protected by admission.mu.
type tenantBucket struct {
	tokens float64   // may go negative: each queued request holds a reservation
	last   time.Time // last refill instant
	queued int       // requests sleeping until their reserved token refills
	shed   int64

	shedCtr *obs.Counter // faas.admission.shed.<tenant>; nil → no-op
}

// admission is the platform-wide admission state.
type admission struct {
	mu      sync.Mutex
	cfg     AdmissionConfig
	buckets map[string]*tenantBucket
}

// bucketLocked returns (creating if needed) the tenant's bucket. a.mu held.
func (a *admission) bucketLocked(p *platform, tenant string, now time.Time) *tenantBucket {
	b := a.buckets[tenant]
	if b == nil {
		b = &tenantBucket{tokens: a.cfg.Burst, last: now} // a fresh tenant starts with a full bucket
		b.shedCtr = p.obsReg.Counter("faas.admission.shed." + tenant)
		a.buckets[tenant] = b
	}
	return b
}

// SetAdmission enables (or reconfigures) per-tenant admission. Pass it
// before traffic; existing tenant buckets are kept across reconfiguration.
// A zero RatePerSecond disables admission entirely.
func (p *Platform) SetAdmission(cfg AdmissionConfig) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cfg.RatePerSecond <= 0 {
		p.adm.Store(nil)
		return
	}
	cfg = cfg.withDefaults()
	a := p.adm.Load()
	if a == nil {
		p.adm.Store(&admission{cfg: cfg, buckets: map[string]*tenantBucket{}})
		return
	}
	a.mu.Lock()
	a.cfg = cfg
	a.mu.Unlock()
}

// AdmissionShed returns how many of the tenant's requests admission has shed
// (0 when admission is off or the tenant is unknown).
func (p *Platform) AdmissionShed(tenant string) int64 {
	a := p.adm.Load()
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if b := a.buckets[tenant]; b != nil {
		return b.shed
	}
	return 0
}

// admit gates one request from tenant through admission. It returns after
// the request holds a token — sleeping on the platform clock while queued —
// or fails with ErrThrottled when the request must be shed. a may be nil
// (admission off).
func (p *platform) admit(a *admission, tenant string) error {
	if a == nil {
		return nil
	}
	now := p.clock.Now()
	a.mu.Lock()
	b := a.bucketLocked(p, tenant, now)
	// Refill at the tenant's equal share of the platform rate.
	rate := a.cfg.RatePerSecond / float64(len(a.buckets))
	if el := now.Sub(b.last); el > 0 {
		b.tokens += rate * el.Seconds()
		if b.tokens > a.cfg.Burst {
			b.tokens = a.cfg.Burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		a.mu.Unlock()
		return nil
	}
	// No token: compute the wait until this request's reservation refills.
	// The bucket goes negative one unit per queued request, so waits space
	// out FIFO at the tenant's admitted rate without any condition variable
	// — deterministic under the virtual clock.
	wait := time.Duration((1 - b.tokens) / rate * float64(time.Second))
	if b.queued >= a.cfg.MaxQueue || wait > a.cfg.MaxWait {
		b.shed++
		b.shedCtr.Inc()
		a.mu.Unlock()
		p.obsAdmShed.Inc()
		if p.meter != nil {
			p.meter.Add(billing.Record{Tenant: tenant, Resource: billing.ResShedRequests, Units: 1})
		}
		return fmt.Errorf("%w: tenant %q shed by admission (wait %v, queued %d)",
			ErrTenantThrottled, tenant, wait, b.queued)
	}
	b.tokens--
	b.queued++
	a.mu.Unlock()

	p.clock.Sleep(wait)
	p.obsAdmWait.Observe(wait)

	a.mu.Lock()
	b.queued--
	a.mu.Unlock()
	return nil
}

// ErrTenantThrottled marks a request shed by per-tenant admission. It wraps
// the same platform-wide errs.ErrThrottled identity as ErrThrottled, so
// errors.Is(err, errs.ErrThrottled) matches either; matching this sentinel
// distinguishes tenant-level shedding from a function's concurrency cap.
var ErrTenantThrottled = fmt.Errorf("faas: tenant rate limit reached (%w)", errs.ErrThrottled)
