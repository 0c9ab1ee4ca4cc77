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
// "SLA Guarantees"): a weighted fair-share token bucket per tenant, with
// bounded queuing and load shedding, so one tenant's burst cannot starve
// another's steady traffic. Each tenant's bucket refills at
// RatePerSecond × weight/Σweights; a request that finds no token either
// queues (deterministically, by reserving a future token and sleeping until
// its refill instant) or — when the projected wait exceeds the tenant's
// MaxWait or its queue bound is full — is shed with ErrThrottled before any
// instance capacity is consumed. Sheds are counted per tenant in obs
// (faas.admission.shed.<tenant>) and metered to billing
// (billing.ResShedRequests), so throttling is visible on the invoice.

// TenantLimit configures one tenant's share of the admission rate.
// Zero-valued fields inherit the AdmissionConfig defaults.
type TenantLimit struct {
	// Weight is the tenant's fair-share weight. The tenant's admitted rate
	// is RatePerSecond × Weight / (sum of all tenants' weights). Default 1.
	Weight float64
	// Burst is the token bucket depth: how many requests above the
	// steady-state rate the tenant may fire instantaneously.
	Burst float64
	// MaxQueue bounds how many of the tenant's requests may wait for a
	// token at once; arrivals beyond it are shed.
	MaxQueue int
	// MaxWait bounds the projected token wait; a request that would wait
	// longer is shed immediately (no goodput is gained by queueing it).
	MaxWait time.Duration
}

// AdmissionConfig enables per-tenant admission on a Platform.
type AdmissionConfig struct {
	// RatePerSecond is the total admitted request rate shared by all
	// tenants in proportion to their weights. Required (> 0).
	RatePerSecond float64
	// Burst is the default per-tenant bucket depth. Default 10.
	Burst float64
	// MaxQueue is the default per-tenant queue bound. Default 64.
	MaxQueue int
	// MaxWait is the default bound on projected token wait. Default 1s.
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
	limit  TenantLimit
	tokens float64   // may go negative: each queued request holds a reservation
	last   time.Time // last refill instant
	queued int       // requests sleeping until their reserved token refills
	shed   int64

	shedCtr *obs.Counter // faas.admission.shed.<tenant>; nil → no-op
}

func (b *tenantBucket) weight() float64 {
	if b.limit.Weight <= 0 {
		return 1
	}
	return b.limit.Weight
}

// admission is the platform-wide admission state.
type admission struct {
	mu          sync.Mutex
	cfg         AdmissionConfig
	buckets     map[string]*tenantBucket
	totalWeight float64
}

// effective returns the tenant's limit with config defaults applied.
func (a *admission) effective(l TenantLimit) TenantLimit {
	if l.Weight <= 0 {
		l.Weight = 1
	}
	if l.Burst <= 0 {
		l.Burst = a.cfg.Burst
	}
	if l.MaxQueue <= 0 {
		l.MaxQueue = a.cfg.MaxQueue
	}
	if l.MaxWait <= 0 {
		l.MaxWait = a.cfg.MaxWait
	}
	return l
}

// bucketLocked returns (creating if needed) the tenant's bucket. a.mu held.
func (a *admission) bucketLocked(p *Platform, tenant string, now time.Time) *tenantBucket {
	b := a.buckets[tenant]
	if b == nil {
		b = &tenantBucket{limit: a.effective(TenantLimit{}), last: now}
		b.tokens = b.limit.Burst // a fresh tenant starts with a full bucket
		b.shedCtr = p.obsReg.Counter("faas.admission.shed." + tenant)
		a.buckets[tenant] = b
		a.totalWeight += b.weight()
	}
	return b
}

// SetAdmission enables (or reconfigures) per-tenant admission. Pass it
// before traffic; existing per-tenant limits are preserved across
// reconfiguration. A zero RatePerSecond disables admission entirely.
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

// SetTenantLimit sets one tenant's fair-share weight, burst and queue
// bounds. No-op unless SetAdmission has enabled admission.
func (p *Platform) SetTenantLimit(tenant string, l TenantLimit) {
	a := p.adm.Load()
	if a == nil {
		return
	}
	now := p.clock.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.bucketLocked(p, tenant, now)
	a.totalWeight -= b.weight()
	b.limit = a.effective(l)
	a.totalWeight += b.weight()
	if b.tokens > b.limit.Burst {
		b.tokens = b.limit.Burst
	}
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
func (p *Platform) admit(a *admission, tenant string) error {
	if a == nil {
		return nil
	}
	now := p.clock.Now()
	a.mu.Lock()
	b := a.bucketLocked(p, tenant, now)
	// Refill at the tenant's weighted share of the platform rate.
	rate := a.cfg.RatePerSecond * b.weight() / a.totalWeight
	if el := now.Sub(b.last); el > 0 {
		b.tokens += rate * el.Seconds()
		if b.tokens > b.limit.Burst {
			b.tokens = b.limit.Burst
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
	if b.queued >= b.limit.MaxQueue || wait > b.limit.MaxWait {
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
// errors.Is(err, core.ErrThrottled) matches either; matching this sentinel
// distinguishes tenant-level shedding from a function's concurrency cap.
var ErrTenantThrottled = fmt.Errorf("faas: tenant rate limit reached (%w)", errs.ErrThrottled)
