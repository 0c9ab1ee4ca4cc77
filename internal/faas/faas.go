// Package faas implements the Function-as-a-Service platform at the centre
// of the paper (§2, §4.1): users register stateless functions and the
// platform provides demand-driven execution — instances are provisioned on
// demand (paying a cold-start penalty), kept warm for a keep-alive window,
// and reaped back to zero when idle — with limited execution times,
// per-function concurrency limits, transparent retry of failed asynchronous
// invocations, and fine-grained billing.
//
// Function compute is modelled, not burned: handlers call Ctx.Work(d) to
// consume d of simulated execution time on the shared Clock, which also
// enforces the platform's execution time limit deterministically.
package faas

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"math/rand"

	"repro/internal/billing"
	"repro/internal/errs"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/simclock"
)

// Errors returned by the platform. Throttle and breaker sentinels wrap the
// platform-wide identities in internal/errs, so errors.Is(err,
// errs.ErrThrottled) matches regardless of which plane shed the request.
var (
	ErrNoFunction  = errors.New("faas: function not registered")
	ErrExists      = errors.New("faas: function already registered")
	ErrThrottled   = fmt.Errorf("faas: concurrency limit reached (%w)", errs.ErrThrottled)
	ErrTimeout     = errors.New("faas: execution time limit exceeded")
	ErrPayloadSize = errors.New("faas: payload too large")
	ErrCircuitOpen = fmt.Errorf("faas: %w", errs.ErrBreakerOpen)
)

// Handler is the user function body. It may call Ctx.Work to model compute
// and may use any platform service captured in its closure; its returned
// bytes are the invocation result. The *Ctx is drawn from a platform-wide
// pool and is recycled when the handler returns: handlers must not retain it
// past return (copy the fields they need instead). The payload is the
// caller's buffer, valid until the handler returns: a handler that keeps it
// (or a sub-slice) copies it, and must not write past its length; the
// returned bytes may alias it.
type Handler func(ctx *Ctx, payload []byte) ([]byte, error)

// Config parameterizes one registered function.
type Config struct {
	// MemoryMB sizes the instance; it scales billing (GB-seconds).
	// Default 128.
	MemoryMB int
	// Timeout is the execution time limit ("limited execution times",
	// §4.1). Default 60s.
	Timeout time.Duration
	// MaxConcurrency caps simultaneously running instances. Default 1000.
	MaxConcurrency int
	// KeepAlive is how long an idle warm instance survives before the
	// platform reclaims it. Default 10m, matching observed provider
	// behaviour ([180]). Zero means instances are never reused.
	KeepAlive time.Duration
	// ColdStart is the provisioning+runtime-init latency of a new
	// instance. Default 250ms, in the range measured by [112]/[180].
	ColdStart time.Duration
	// WarmStart is the dispatch latency onto an existing instance.
	// Default 1ms.
	WarmStart time.Duration
	// MaxRetries is how many times InvokeAsyncFor re-executes a failed
	// invocation. Default 2 (i.e. up to 3 attempts), as AWS Lambda does
	// for asynchronous events.
	MaxRetries int
	// MaxPayload bounds the request payload size in bytes. Default 6 MB.
	MaxPayload int
	// Prewarm keeps at least this many instances warm at all times
	// ("provisioned concurrency"): they are created at registration and
	// exempt from keep-alive reaping, trading standing cost for zero cold
	// starts — the §6 SLA-predictability lever.
	Prewarm int
	// Demand is the instance's resource vector when the platform is
	// attached to a cluster (AttachCluster). Zero means {CPU: 1000,
	// MemMB: MemoryMB}.
	Demand scheduler.Resources
	// BreakerThreshold arms a per-function circuit breaker: after this many
	// consecutive handler failures the breaker opens and invokes fast-fail
	// with ErrCircuitOpen — before reserving a concurrency slot — until a
	// half-open probe succeeds. Zero (default) disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before letting a
	// single half-open probe through. Default 30s when the breaker is armed.
	BreakerCooldown time.Duration
	// DedupWindow arms per-function idempotency-key deduplication: an invoke
	// carrying a key (InvokeForTraceIdem, InvokeWithRetry) whose previous
	// keyed invocation *succeeded* within the window is served the cached Result —
	// no handler execution, no billing — with Result.Deduped set. This is the
	// opt-in half of exactly-once-observable semantics over an at-least-once
	// transport: the platform still retries, but a client that lost the reply
	// and re-sends its key cannot double-execute the handler. Failed attempts
	// are never cached (a retry after failure must re-execute), and the
	// window is best-effort for *concurrent* duplicates: two in-flight
	// invocations of the same key may both execute, as on real platforms
	// whose dedup is a post-commit record, not a lock. Zero disables dedup;
	// keys are then ignored.
	DedupWindow time.Duration
}

func (c Config) withDefaults() Config {
	if c.MemoryMB == 0 {
		c.MemoryMB = 128
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxConcurrency == 0 {
		c.MaxConcurrency = 1000
	}
	if c.KeepAlive == 0 {
		c.KeepAlive = 10 * time.Minute
	}
	if c.ColdStart == 0 {
		c.ColdStart = 250 * time.Millisecond
	}
	if c.WarmStart == 0 {
		c.WarmStart = time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0 // negative disables async retry
	}
	if c.MaxPayload == 0 {
		c.MaxPayload = 6 << 20
	}
	if c.BreakerThreshold > 0 && c.BreakerCooldown == 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	return c
}

// Ctx is passed to every handler invocation.
type Ctx struct {
	Clock        simclock.Clock
	FunctionName string
	Tenant       string
	RequestID    int64
	InstanceID   int64 // identity of the warm instance running this request
	Attempt      int   // 1-based attempt number under async retry
	// Trace is the handler span's causal context. Handlers thread it into
	// downstream trace-aware APIs (pulsar SendKeyTrace, jiffy Traced, nested
	// InvokeForTraceIdem) so one request is one trace across subsystems. It
	// is two int64s copied by value — safe to pass onward even though *Ctx
	// itself is pooled and must not be retained.
	Trace obs.TraceCtx

	budget   time.Duration // remaining execution time
	worked   time.Duration
	exceeded bool
	slowdown float64 // interference multiplier (≥1) from co-resident contenders
}

// Work consumes d of simulated execution time. If the function's remaining
// time budget is smaller than d, Work consumes only the budget and marks the
// invocation as timed out; the platform then fails it with ErrTimeout.
// When the platform is attached to a cluster, the wall-clock cost is
// inflated by the instance's interference slowdown (§6 "SLA Guarantees":
// contention makes performance unpredictable) while the budget is charged
// the nominal amount.
func (c *Ctx) Work(d time.Duration) {
	if d <= 0 || c.exceeded {
		return
	}
	if d >= c.budget {
		d = c.budget
		c.exceeded = true
	}
	c.budget -= d
	c.worked += d
	wall := d
	if c.slowdown > 1 {
		wall = time.Duration(float64(d) * c.slowdown)
	}
	c.Clock.Sleep(wall)
}

type instance struct {
	id        int64
	idleSince time.Time
}

// ScalePoint is one sample of a function's instance footprint over time,
// recorded at every scaling-relevant event (experiment E2).
type ScalePoint struct {
	At        time.Time
	Instances int // warm idle + running
}

type function struct {
	name   string
	tenant string
	// key is the "tenant/name" display label, computed once at Register. It
	// is write-only — it names scheduler slots, Load.Key and autoscaler
	// gauges — and is never parsed or used to resolve a function.
	key      string
	handler  Handler
	cfg      Config
	platform *platform

	brk      breaker    // armed when cfg.BreakerThreshold > 0
	brkGauge *obs.Gauge // per-function breaker state; nil → no-op

	// idem is the dedup window (idem.go), nil until the first keyed success
	// on a function with a DedupWindow. Its own mutex, not fn.mu — a dedup
	// hit must not contend with the instance-pool bookkeeping it exists to
	// bypass.
	idemMu sync.Mutex
	idem   *idemWindow

	// Tenant/function-labeled handles and the tenant SLO accumulator,
	// resolved once at Register (nil no-ops without observability) so a fold
	// never touches a label map. The invoke path does not touch them at all:
	// it appends one record to the invoke log below, and a fold replays the
	// log into these and the platform's invoke instruments (invokelog.go).
	lblInv  *obs.Counter
	lblFail *obs.Counter
	lblLat  *obs.Histogram
	slo     *obs.TenantSLO

	mu          sync.Mutex
	log         []invokeRecord // the invoke log: completed invokes not yet folded
	logged      bool           // listed in platform.logged
	idle        []*instance    // in idleSince order: acquire takes the newest (back), reap drops the oldest (front)
	keepAlive   *simclock.Timer
	kaArmed     bool // keepAlive is pending
	running     int
	warming     int  // instances provisioning toward the pool target
	gone        bool // set by Unregister; in-flight provisions release
	poolTarget  int  // autoscaler-desired pool size (informational)
	nextInst    int64
	invocations int64
	coldStarts  int64
	throttles   int64
	timeouts    int64
	failures    int64
	timeline    []ScalePoint
}

// dedupLookup returns the cached Result for an idempotency key if it is still
// inside the window. Expired entries are deleted on the way.
func (fn *function) dedupLookup(key string, now time.Time) (Result, bool) {
	if key == "" || fn.cfg.DedupWindow <= 0 {
		return Result{}, false
	}
	fn.idemMu.Lock()
	defer fn.idemMu.Unlock()
	if fn.idem == nil {
		return Result{}, false
	}
	return fn.idem.lookup(key, now)
}

// dedupStore records a successful keyed invocation. Only successes are
// cached: replaying a failure would hide exactly the retry that could fix it.
// The window keeps what a hit replays — output, Cold, Latency, Billed — and
// drops what has lapsed, so it is O(live window), not O(history).
func (fn *function) dedupStore(key string, res Result, now time.Time) {
	if key == "" || fn.cfg.DedupWindow <= 0 {
		return
	}
	fn.idemMu.Lock()
	defer fn.idemMu.Unlock()
	if fn.idem == nil {
		fn.idem = &idemWindow{base: now, index: map[string]uint64{}}
	}
	fn.idem.store(key, res, now, fn.cfg.DedupWindow)
}

// Platform is the FaaS control plane plus data plane.
//
// A Platform has a lifetime: Close ends it, and so does a finalizer once no
// handle is left; a binding (BindTopic, BindQueue, BindBlob) holds one. Its
// state lives on the *platform it wraps, which refers back to no handle, so
// a handler that does keeps its platform alive until Close.
//
// Admission is lock-free on the platform level: request IDs come from an
// atomic counter and the function table sits behind an RWMutex, so invokes
// of different functions never serialize on platform-wide state — only
// Register/Unregister take the write lock. Per-function state is under the
// function's own mutex, held only for bookkeeping (never across cold-start
// placement, start latency or handler execution).
type Platform struct{ *platform }

type platform struct {
	clock simclock.Clock
	meter *billing.Meter
	// cell points at the platform until Close. It is all a keep-alive timer
	// holds, so a pending real-clock timer pins the cell, not the platform.
	cell *atomic.Pointer[platform]

	mu        sync.RWMutex // guards functions, cluster, penalty; serializes SetAdmission
	functions map[fnID]*function

	// adm is the per-tenant admission state (nil = admission off).
	adm atomic.Pointer[admission]

	nextReq atomic.Int64

	cluster *scheduler.Cluster
	penalty float64 // slowdown per same-dominant co-resident

	// rng drives retry jitter. Built with a fixed seed by the first jitter,
	// so retry spacing is deterministic under the virtual clock and a
	// platform that never retries never pays its 4.9 KB; guarded by rngMu.
	rngMu sync.Mutex
	rng   *rand.Rand

	// The invoke logs' fold state (invokelog.go). logSeq numbers completed
	// invokes platform-wide; logged lists the functions whose log holds
	// records, under logMu; foldMu runs one fold at a time and guards the
	// fold's two scratch buffers.
	logSeq  atomic.Uint32
	logMu   sync.Mutex
	logged  []*function
	foldMu  sync.Mutex
	foldFns []*function
	foldBuf []loggedInvoke

	// Pre-resolved observability handles; nil (all no-ops) until SetObs.
	obsReg         *obs.Registry // kept for per-function breaker gauges
	obsCold        *obs.Counter
	obsWarm        *obs.Counter
	obsThrottled   *obs.Counter
	obsTimeout     *obs.Counter
	obsFailure     *obs.Counter
	obsQueueWait   *obs.Histogram
	obsHandlerLat  *obs.Histogram
	obsInvokeLat   *obs.Histogram
	obsBreakerFast *obs.Counter
	obsBreakerOpen *obs.Counter
	obsRetryWait   *obs.Histogram
	obsAdmShed     *obs.Counter
	obsAdmWait     *obs.Histogram
	obsPrewarmed   *obs.Counter
	obsPlaceFail   *obs.Counter
	obsTracer      *obs.Tracer
	obsSLO         *obs.SLOEngine
	obsInvVec      *obs.CounterVec
	obsFailVec     *obs.CounterVec
	obsLatVec      *obs.HistogramVec
}

// New creates an empty Platform. meter may be nil to disable billing.
func New(clock simclock.Clock, meter *billing.Meter) *Platform {
	p := &platform{clock: clock, meter: meter, functions: map[fnID]*function{}, cell: new(atomic.Pointer[platform])}
	p.cell.Store(p)
	w := &Platform{p}
	runtime.SetFinalizer(w, (*Platform).Close)
	return w
}

// Close ends the platform: keep-alive timers go quiet, and an instance that
// would join an idle pool is released instead. Reads still answer. It clears
// the finalizer New set, so a closed platform is freed at the first
// collection that finds it unreachable. It is idempotent.
func (p *Platform) Close() {
	p.cell.Store(nil)
	runtime.SetFinalizer(p, nil)
}

// SetObs attaches observability instruments. Handles are resolved once here,
// and the fold of the functions' invoke logs is registered as the registry's
// OnRead hook, so every registry read sees every completed invoke; a nil
// registry yields nil instruments, whose methods are no-ops, and no invoke
// log is kept. Call before registering functions so their breaker gauges
// land in the registry.
func (p *Platform) SetObs(r *obs.Registry) {
	p.obsReg = r
	p.obsCold = r.Counter("faas.invoke.cold")
	p.obsWarm = r.Counter("faas.invoke.warm")
	p.obsThrottled = r.Counter("faas.invoke.throttled")
	p.obsTimeout = r.Counter("faas.invoke.timeout")
	p.obsFailure = r.Counter("faas.invoke.failure")
	p.obsQueueWait = r.Histogram("faas.queue.wait")
	p.obsHandlerLat = r.Histogram("faas.handler.latency")
	p.obsInvokeLat = r.Histogram("faas.invoke.latency")
	p.obsBreakerFast = r.Counter("faas.breaker.fastfail")
	p.obsBreakerOpen = r.Counter("faas.breaker.opened")
	p.obsRetryWait = r.Histogram("faas.retry.wait")
	p.obsAdmShed = r.Counter("faas.admission.shed")
	p.obsAdmWait = r.Histogram("faas.admission.wait")
	p.obsPrewarmed = r.Counter("faas.pool.prewarmed")
	p.obsPlaceFail = r.Counter("faas.pool.placefail")
	p.obsTracer = r.Tracer()
	p.obsSLO = r.SLO()
	p.obsInvVec = r.CounterVec("faas.tenant.invocations", "tenant", "function")
	p.obsFailVec = r.CounterVec("faas.tenant.failures", "tenant", "function")
	p.obsLatVec = r.HistogramVec("faas.tenant.latency", "tenant", "function")
	r.SetHelp("faas.tenant.invocations", "Invocations that reached a handler, by tenant and function.")
	r.SetHelp("faas.tenant.failures", "Handler failures and timeouts, by tenant and function.")
	r.SetHelp("faas.tenant.latency", "End-to-end invoke latency, by tenant and function.")
	r.SetHelp("faas.invoke.latency", "End-to-end invoke latency across all tenants.")
	r.OnRead(p.platform.foldInvokeLogs)
}

// Clock returns the platform's clock (handlers and triggers share it).
func (p *Platform) Clock() simclock.Clock { return p.clock }

// AttachCluster binds instance placement to a scheduler cluster: every
// instance occupies its function's Demand on a machine chosen by the
// cluster's policy, and invocations suffer a slowdown of
// 1 + penalty × (same-dominant co-residents) — making §6's bin-packing /
// performance-isolation trade-off measurable (experiments E19, E20). Attach
// before registering functions.
func (p *Platform) AttachCluster(c *scheduler.Cluster, penaltyPerContender float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cluster = c
	p.penalty = penaltyPerContender
}

// Cluster returns the attached cluster (nil if none).
func (p *Platform) Cluster() *scheduler.Cluster {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.cluster
}

// fnID is a function's identity: names are a namespace per tenant, so two
// tenants may each own a "resize" and neither can name the other's.
type fnID struct{ tenant, name string }

// lookup resolves tenant's function name. It is the only resolution path:
// another tenant's function of the same name is indistinguishable from an
// unregistered one.
func (p *platform) lookup(tenant, name string) (*function, error) {
	p.mu.RLock()
	fn := p.functions[fnID{tenant, name}]
	p.mu.RUnlock()
	if fn == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoFunction, name)
	}
	return fn, nil
}

// Register adds a function owned by tenant. With Prewarm > 0, the
// provisioned instances are created (and placed) immediately. Names are
// scoped per tenant: registration collides only with the same tenant's own
// functions, never with (and without revealing) another tenant's.
func (p *Platform) Register(name, tenant string, handler Handler, cfg Config) error {
	id := fnID{tenant, name}
	p.mu.Lock()
	if _, ok := p.functions[id]; ok {
		p.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	p.mu.Unlock()
	fn := &function{name: name, tenant: tenant, key: tenant + "/" + name, handler: handler, cfg: cfg.withDefaults(), platform: p.platform}

	// Provisioned concurrency: instances exist before the first request, and
	// before the function is listed, so a registration is all or nothing: a
	// placement that fails releases the ones placed so far and lists nothing.
	now := p.clock.Now()
	for i := 0; i < fn.cfg.Prewarm; i++ {
		fn.nextInst++
		inst := &instance{id: fn.nextInst, idleSince: now}
		if err := p.placeInstance(fn, inst); err != nil {
			p.releaseIdle(fn)
			return err
		}
		fn.idle = append(fn.idle, inst)
	}
	if fn.cfg.Prewarm > 0 {
		fn.recordLocked(now)
	}
	if fn.cfg.BreakerThreshold > 0 {
		fn.brkGauge = p.obsReg.Gauge("faas.breaker.state." + name)
	}
	fn.lblInv = p.obsInvVec.With(tenant, name)
	fn.lblFail = p.obsFailVec.With(tenant, name)
	fn.lblLat = p.obsLatVec.With(tenant, name)
	fn.slo = p.obsSLO.Tenant(tenant)
	p.mu.Lock()
	_, taken := p.functions[id] // by a concurrent Register of the name
	if !taken {
		p.functions[id] = fn
	}
	p.mu.Unlock()
	if taken {
		p.releaseIdle(fn)
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	return nil
}

// instKey identifies an instance in the attached cluster. Built from the
// function's "tenant/name" label so two tenants' same-named functions never
// collide on cluster slots.
func instKey(fnKey string, id int64) string {
	return fmt.Sprintf("%s#%d", fnKey, id)
}

// placeInstance claims cluster capacity for a new instance (no-op without a
// cluster); a rejection counts on faas.pool.placefail.
func (p *platform) placeInstance(fn *function, inst *instance) error {
	if p.cluster == nil {
		return nil
	}
	_, err := p.cluster.PlaceTenant(instKey(fn.key, inst.id), fn.tenant, fn.demandOf())
	if err != nil {
		p.obsPlaceFail.Inc()
	}
	return err
}

// releaseInstance returns an instance's cluster capacity (no-op without a
// cluster).
func (p *platform) releaseInstance(fn *function, inst *instance) {
	if p.cluster != nil {
		_ = p.cluster.Release(instKey(fn.key, inst.id))
	}
}

// releaseIdle returns every idle instance's cluster capacity and empties the
// pool. Called with fn.mu held, or before fn is listed.
func (p *platform) releaseIdle(fn *function) {
	for _, in := range fn.idle {
		p.releaseInstance(fn, in)
	}
	fn.idle = nil
}

// slowdownFor computes an instance's current interference multiplier.
func (p *platform) slowdownFor(fn *function, inst *instance) float64 {
	if p.cluster == nil || p.penalty <= 0 {
		return 1
	}
	return 1 + p.penalty*float64(p.cluster.ContendersOf(instKey(fn.key, inst.id)))
}

// UnregisterFor removes tenant's function name, releasing its idle
// instances' cluster capacity and folding its invoke log. Another tenant's
// same-named function is untouched and unprobeable (ErrNoFunction either
// way).
func (p *Platform) UnregisterFor(tenant, name string) error {
	id := fnID{tenant, name}
	p.mu.Lock()
	fn := p.functions[id]
	delete(p.functions, id)
	p.mu.Unlock()
	if fn == nil {
		return fmt.Errorf("%w: %q", ErrNoFunction, name)
	}

	fn.mu.Lock()
	fn.gone = true
	p.releaseIdle(fn)
	fn.mu.Unlock()
	// Once gone is set, an invoke still in flight folds its own record as it
	// completes; this fold takes everything logged before.
	p.foldInvokeLogs()
	return nil
}

// Result describes one completed invocation.
type Result struct {
	Output    []byte
	Cold      bool          // the invocation paid a cold start
	Latency   time.Duration // end-to-end: admission wait + queuing + start + execution
	Billed    time.Duration // duration billed (rounded up)
	RequestID int64
	Attempt   int           // 1-based attempt that produced this result
	RetryWait time.Duration // total backoff slept before this attempt
	TraceID   int64         // causal trace covering this invocation (0 = untraced)
	// Deduped marks a result served from the function's idempotency-key
	// dedup window: the handler did not run and nothing was billed.
	Deduped bool
}

// InvokeFor runs tenant's function name synchronously and returns its
// result. The calling goroutine pays the start latency and execution time on
// the platform clock.
func (p *Platform) InvokeFor(tenant, name string, payload []byte) (Result, error) {
	return p.invoke(tenant, name, payload, 1, obs.TraceCtx{}, "")
}

// InvokeForTraceIdem is InvokeFor carrying an inbound causal context and an
// idempotency key. A zero tc roots a new trace at this invocation; a valid tc
// (the HTTP gateway's request span, an orchestrate step, a consuming
// function's handler span) attaches the invocation to the caller's trace. On
// a function with a DedupWindow, a non-empty idemKey whose previous
// invocation succeeded inside the window is answered from the cache
// (Result.Deduped) without executing or billing.
func (p *Platform) InvokeForTraceIdem(tenant, name string, payload []byte, tc obs.TraceCtx, idemKey string) (Result, error) {
	return p.invoke(tenant, name, payload, 1, tc, idemKey)
}

// FunctionInfo summarizes one registered function for control-plane listings.
type FunctionInfo struct {
	Name   string
	Tenant string
	Config Config
}

// FunctionsFor lists tenant's registered functions, sorted by name. Only the
// tenant's own namespace is visible — the listing can never leak another
// tenant's deployments.
func (p *Platform) FunctionsFor(tenant string) []FunctionInfo {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]FunctionInfo, 0, 4)
	for _, fn := range p.functions {
		if fn.tenant == tenant {
			out = append(out, FunctionInfo{Name: fn.name, Tenant: fn.tenant, Config: fn.cfg})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (p *platform) invoke(tenant, name string, payload []byte, attempt int, parent obs.TraceCtx, idemKey string) (Result, error) {
	fn, err := p.lookup(tenant, name)
	if err != nil {
		return Result{}, err
	}
	reqID := p.nextReq.Add(1)

	// The invoke span roots a new trace (zero parent) or joins the caller's
	// (orchestrate step, async retry wrapper, nested invocation). It covers
	// admission, the breaker gate, queuing, and the handler, so shed and
	// fast-failed requests still yield a (failed) trace.
	span := p.obsTracer.Start(parent, "faas.invoke")

	if len(payload) > fn.cfg.MaxPayload {
		span.EndLabeled(fn.tenant, fn.name, true)
		return Result{RequestID: reqID, Attempt: attempt, TraceID: span.TraceID()},
			fmt.Errorf("%w: %d > %d bytes", ErrPayloadSize, len(payload), fn.cfg.MaxPayload)
	}

	// Dedup window: a key that already succeeded inside the window never
	// reaches admission, the breaker, the pool or the meter — the cached
	// reply *is* the invocation, which is what makes keyed retries
	// billing-invisible.
	arrival := p.clock.Now()
	if res, ok := fn.dedupLookup(idemKey, arrival); ok {
		res.RequestID = reqID
		res.Attempt = attempt
		res.Deduped = true
		res.TraceID = span.TraceID()
		span.EndLabeled(fn.tenant, fn.name, false)
		return res, nil
	}

	// Tenant admission: the fair-share token bucket gates (and may queue or
	// shed) the request before any breaker or concurrency state is touched.
	if err := p.admit(p.adm.Load(), fn.tenant); err != nil {
		fn.mu.Lock()
		fn.throttles++
		fn.mu.Unlock()
		span.EndLabeled(fn.tenant, fn.name, true)
		return Result{RequestID: reqID, Attempt: attempt, TraceID: span.TraceID()}, err
	}

	// Circuit-breaker gate: an open breaker sheds the request here, before
	// the concurrency-slot reservation below — fast-fail must not consume
	// capacity the healthy traffic could use.
	gated := fn.cfg.BreakerThreshold > 0
	var probe bool
	if gated {
		var ok bool
		ok, probe = fn.brk.allow(p.clock.Now(), fn.cfg.BreakerCooldown)
		if !ok {
			p.obsBreakerFast.Inc()
			span.EndLabeled(fn.tenant, fn.name, true)
			return Result{RequestID: reqID, Attempt: attempt, TraceID: span.TraceID()}, fmt.Errorf("%w: %q", ErrCircuitOpen, name)
		}
		if probe {
			fn.brkGauge.Set(breakerHalfOpen.gaugeValue())
		}
	}

	start := p.clock.Now()
	qspan := p.obsTracer.Start(span.Ctx(), "faas.queue")

	// Acquire an instance: reuse a live warm one or reserve a cold slot.
	// The reservation (running++) happens under fn.mu so MaxConcurrency
	// holds, but cluster placement runs after the unlock: a slow cold-start
	// placement must not block warm acquisitions on sibling instances.
	fn.mu.Lock()
	var inst *instance
	cold := false
	// A lapsed newest instance is not handed out even before its timer runs
	// (a real-clock AfterFunc can be late); a Prewarm floor never lapses.
	if n := len(fn.idle); n > 0 && (fn.cfg.Prewarm > 0 || start.Before(fn.idle[n-1].idleSince.Add(fn.cfg.KeepAlive))) {
		inst = fn.idle[n-1]
		fn.idle = fn.idle[:n-1]
	} else {
		if fn.running+len(fn.idle)+fn.warming >= fn.cfg.MaxConcurrency {
			fn.throttles++
			fn.mu.Unlock()
			p.obsThrottled.Inc()
			if gated {
				p.recordBreaker(fn, outcomeAborted, probe)
			}
			qspan.EndErr(true)
			span.EndLabeled(fn.tenant, fn.name, true)
			return Result{RequestID: reqID, Attempt: attempt, TraceID: span.TraceID()},
				fmt.Errorf("%w: %q at %d", ErrThrottled, name, fn.cfg.MaxConcurrency)
		}
		fn.nextInst++
		inst = &instance{id: fn.nextInst}
		cold = true
		fn.coldStarts++
	}
	fn.running++
	fn.invocations++
	fn.recordLocked(start)
	fn.mu.Unlock()

	if cold {
		if err := p.placeInstance(fn, inst); err != nil {
			// Roll back the reservation; the instance ID is not reused. A
			// full fleet is a throttle, worth a retry later; a demand no
			// machine can fit (scheduler.ErrUnplaceable) never succeeds, so
			// it is not one.
			throttle := !errors.Is(err, scheduler.ErrUnplaceable)
			fn.mu.Lock()
			fn.running--
			fn.coldStarts--
			fn.invocations--
			if throttle {
				fn.throttles++
			}
			fn.recordLocked(start)
			fn.mu.Unlock()
			if throttle {
				p.obsThrottled.Inc()
				err = fmt.Errorf("%w: %q: %w", ErrThrottled, name, err)
			} else {
				err = fmt.Errorf("faas: %q: %w", name, err)
			}
			if gated {
				p.recordBreaker(fn, outcomeAborted, probe)
			}
			qspan.EndErr(true)
			span.EndLabeled(fn.tenant, fn.name, true)
			return Result{RequestID: reqID, Attempt: attempt, TraceID: span.TraceID()}, err
		}
	}

	// Pay start latency.
	if cold {
		p.clock.Sleep(fn.cfg.ColdStart)
	} else {
		p.clock.Sleep(fn.cfg.WarmStart)
	}
	execStart := p.clock.Now()
	qspan.End()

	// Execute with the time-limit budget. The invocation record comes from
	// the request pool; it is recycled (zeroed) as soon as the handler's
	// outcome has been read out, which is why handlers must not retain *Ctx.
	// The handler span's context rides in the pooled Ctx by value, so the
	// recycle cannot corrupt a trace the handler already propagated.
	hspan := p.obsTracer.Start(span.Ctx(), "faas.handler")
	req := getRequest()
	ctx := &req.ctx
	*ctx = Ctx{
		Clock:        p.clock,
		FunctionName: name,
		Tenant:       fn.tenant,
		RequestID:    reqID,
		InstanceID:   inst.id,
		Attempt:      attempt,
		Trace:        hspan.Ctx(),
		budget:       fn.cfg.Timeout,
		slowdown:     p.slowdownFor(fn, inst),
	}
	out, err := fn.handler(ctx, payload)
	timedOut := ctx.exceeded
	execDur := ctx.worked
	putRequest(req)
	if timedOut {
		err = fmt.Errorf("%w: %q after %v", ErrTimeout, name, fn.cfg.Timeout)
		out = nil
	}
	hspan.EndErr(err != nil)

	end := p.clock.Now()
	if execDur == 0 {
		// Handlers that do no modelled work still bill a minimum granule.
		execDur = time.Millisecond
	}
	if p.meter != nil {
		p.meter.AddInvocation(fn.tenant, execDur, fn.cfg.MemoryMB, end)
	}

	// Return the instance to the warm pool (even after handler errors; the
	// runtime survives user exceptions, as on real platforms), and log the
	// invoke for the metrics to fold.
	rec := invokeRecord{
		end:     end.UnixNano(),
		wait:    execStart.Sub(start),
		run:     end.Sub(execStart),
		traceID: span.TraceID(),
		cold:    cold,
		failed:  err != nil,
		timeout: errors.Is(err, ErrTimeout),
	}
	fn.mu.Lock()
	fn.running--
	fn.idleLocked(inst, end)
	if rec.failed {
		if rec.timeout {
			fn.timeouts++
		}
		fn.failures++
	}
	fold := p.obsReg != nil && fn.logLocked(rec)
	fn.recordLocked(end)
	fn.mu.Unlock()
	if fold {
		p.foldInvokeLogs()
	}

	if gated {
		out := outcomeSuccess
		if err != nil {
			out = outcomeFailure
		}
		p.recordBreaker(fn, out, probe)
	}

	span.EndLabeled(fn.tenant, fn.name, err != nil)

	res := Result{
		Output:    out,
		Cold:      cold,
		Latency:   end.Sub(arrival),
		Billed:    billing.BilledDuration(execDur),
		RequestID: reqID,
		Attempt:   attempt,
		TraceID:   span.TraceID(),
	}
	if err == nil {
		fn.dedupStore(idemKey, res, end)
	}
	return res, err
}

// idleLocked parks inst in the idle pool, or releases it when the platform is
// closed, the function gone, or it would sit above the Prewarm floor with no
// keep-alive. It reports whether inst was parked. Called with fn.mu held.
func (fn *function) idleLocked(inst *instance, now time.Time) bool {
	p := fn.platform
	if p.cell.Load() == nil || fn.gone || (fn.cfg.KeepAlive <= 0 && len(fn.idle) >= fn.cfg.Prewarm) {
		p.releaseInstance(fn, inst)
		return false
	}
	inst.idleSince = now
	fn.idle = append(fn.idle, inst)
	fn.armLocked()
	return true
}

// armLocked arms the keep-alive timer at the oldest idle instance's expiry
// when an instance sits above the Prewarm floor, unless the timer is already
// pending: a warm release re-arms nothing. Called with fn.mu held.
func (fn *function) armLocked() {
	if fn.kaArmed || len(fn.idle) <= fn.cfg.Prewarm {
		return
	}
	if fn.keepAlive == nil {
		// The callback holds the cell and the function's id, never the
		// function or the timer: after Close a pending timer pins neither.
		cell, id := fn.platform.cell, fnID{fn.tenant, fn.name}
		fn.keepAlive = simclock.NewTimer(fn.platform.clock, func() {
			if p := cell.Load(); p != nil {
				if f, err := p.lookup(id.tenant, id.name); err == nil {
					f.reap(p.clock.Now())
				}
			}
		})
	}
	fn.kaArmed = true
	fn.keepAlive.Reset(fn.idle[0].idleSince.Add(fn.cfg.KeepAlive))
}

// reap is the keep-alive timer's body: it releases the lapsed idle instances,
// oldest first, holding the Prewarm floor, and re-arms for the next. An early
// fire (after a trim, or for a function registered again) just re-arms.
func (fn *function) reap(now time.Time) {
	fn.mu.Lock()
	defer fn.mu.Unlock()
	fn.kaArmed = false
	n := 0
	for n < len(fn.idle)-fn.cfg.Prewarm && !now.Before(fn.idle[n].idleSince.Add(fn.cfg.KeepAlive)) {
		fn.platform.releaseInstance(fn, fn.idle[n])
		n++
	}
	if n > 0 {
		fn.idle = slices.Delete(fn.idle, 0, n)
		fn.recordLocked(now)
	}
	fn.armLocked()
}

// recordLocked samples the instance footprint for the scaling timeline,
// deduplicating by value: a warm acquire/release moves an instance between
// idle and running without changing the footprint, so steady-state traffic
// appends nothing. Consumers (experiment E2) reconstruct a step function
// from the timeline — "last point not after t" — which dedup preserves
// exactly.
func (fn *function) recordLocked(at time.Time) {
	n := fn.running + len(fn.idle)
	if k := len(fn.timeline); k > 0 && fn.timeline[k-1].Instances == n {
		return
	}
	fn.timeline = append(fn.timeline, ScalePoint{At: at, Instances: n})
}

// Stats is a snapshot of one function's counters.
type Stats struct {
	Invocations int64
	ColdStarts  int64
	Throttles   int64
	Timeouts    int64
	Failures    int64
	WarmIdle    int
	Running     int
	Warming     int
	Timeline    []ScalePoint
}

// StatsFor returns a snapshot of tenant's function name. It is a pure read:
// idle instances leave at their keep-alive instant, not when someone looks.
func (p *Platform) StatsFor(tenant, name string) (Stats, error) {
	fn, err := p.lookup(tenant, name)
	if err != nil {
		return Stats{}, err
	}
	fn.mu.Lock()
	defer fn.mu.Unlock()
	return Stats{
		Invocations: fn.invocations,
		ColdStarts:  fn.coldStarts,
		Throttles:   fn.throttles,
		Timeouts:    fn.timeouts,
		Failures:    fn.failures,
		WarmIdle:    len(fn.idle),
		Running:     fn.running,
		Warming:     fn.warming,
		Timeline:    append([]ScalePoint{}, fn.timeline...),
	}, nil
}

// Percentile returns the q-th percentile (0..100) of ds, or 0 for an empty
// slice.
func Percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration{}, ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q/100*float64(len(s)-1))]
}
