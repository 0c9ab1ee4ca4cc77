package faas

import (
	"sort"
	"time"

	"repro/internal/scheduler"
)

// This file is the autoscaler's surface on the platform: light load
// snapshots (Loads) and pool-target driving (SetPoolTarget). The autoscaler
// in internal/autoscale ticks on these; nothing here assumes one exists —
// SetPoolTarget is equally usable as a manual pre-warming knob.

// demandOf returns the function's per-instance resource demand with the
// MemoryMB default applied (what placement actually claims).
func (fn *function) demandOf() scheduler.Resources {
	d := fn.cfg.Demand
	if d == (scheduler.Resources{}) {
		d = scheduler.Resources{CPU: 1000, MemMB: float64(fn.cfg.MemoryMB)}
	}
	return d
}

// Load is one function's instantaneous load, as the autoscaler sees it.
type Load struct {
	// Tenant and Name identify the function (pass them back into
	// SetPoolTarget/PoolTarget). Key is its "tenant/name" display label: the
	// sort order of Loads and the name of per-function state and gauges.
	Key    string
	Name   string
	Tenant string
	// Running is in-flight invocations; WarmIdle is live idle instances;
	// Warming is instances still provisioning toward the pool target.
	Running  int
	WarmIdle int
	Warming  int
	// Invocations is the function's lifetime invocation count; deltas
	// between autoscaler ticks give the arrival rate.
	Invocations int64
	// KeepAlive and Prewarm are the function's configured floors: the
	// autoscaler must not scale to zero before an idle instance's
	// keep-alive lapses, nor trim below the provisioned floor.
	KeepAlive time.Duration
	Prewarm   int
	// Demand is the per-instance resource vector placement claims.
	Demand         scheduler.Resources
	MaxConcurrency int
}

// Pool returns the function's total instance footprint.
func (l Load) Pool() int { return l.Running + l.WarmIdle + l.Warming }

// Loads snapshots every registered function's load, sorted by Key (the
// deterministic iteration order the autoscaler depends on). It is cheap:
// no durations or timelines are copied.
func (p *Platform) Loads() []Load {
	p.mu.RLock()
	fns := make([]*function, 0, len(p.functions))
	for _, fn := range p.functions {
		fns = append(fns, fn)
	}
	p.mu.RUnlock()
	sort.Slice(fns, func(i, j int) bool { return fns[i].key < fns[j].key })
	out := make([]Load, len(fns))
	for i, fn := range fns {
		fn.mu.Lock()
		out[i] = Load{
			Key:            fn.key,
			Name:           fn.name,
			Tenant:         fn.tenant,
			Running:        fn.running,
			WarmIdle:       len(fn.idle),
			Warming:        fn.warming,
			Invocations:    fn.invocations,
			KeepAlive:      fn.cfg.KeepAlive,
			Prewarm:        fn.cfg.Prewarm,
			Demand:         fn.demandOf(),
			MaxConcurrency: fn.cfg.MaxConcurrency,
		}
		fn.mu.Unlock()
	}
	return out
}

// SetPoolTarget drives the instance pool (running + warm idle + warming) of
// tenant's function name toward target. Growth provisions warm instances
// asynchronously — each pays its cold start off the request path and joins
// the idle pool when ready; a placement rejection is counted
// (faas.pool.placefail) and surrendered, and the next call retries it.
// Shrinkage releases surplus idle instances immediately
// (oldest first), never below the Prewarm floor and never touching running
// or still-warming instances. It returns how many instances were started
// (+) or released (-).
func (p *Platform) SetPoolTarget(tenant, name string, target int) (int, error) {
	if target < 0 {
		target = 0
	}
	fn, err := p.lookup(tenant, name)
	if err != nil {
		return 0, err
	}
	now := p.clock.Now()

	fn.mu.Lock()
	fn.poolTarget = target
	pool := fn.running + len(fn.idle) + fn.warming
	switch {
	case pool < target:
		n := target - pool
		if room := fn.cfg.MaxConcurrency - pool; n > room {
			n = room
		}
		starts := make([]*instance, 0, n)
		for i := 0; i < n; i++ {
			fn.nextInst++
			starts = append(starts, &instance{id: fn.nextInst})
		}
		fn.warming += len(starts)
		if len(starts) > 0 {
			fn.recordLocked(now)
		}
		fn.mu.Unlock()
		for _, inst := range starts {
			p.clock.Go(func() { p.provision(fn, inst) })
		}
		return len(starts), nil

	case pool > target:
		// Trim idle only, oldest (front) first, holding the Prewarm floor.
		trim := pool - target
		if spare := len(fn.idle) - fn.cfg.Prewarm; trim > spare {
			trim = spare
		}
		if trim <= 0 {
			fn.mu.Unlock()
			return 0, nil
		}
		victims := fn.idle[:trim]
		fn.idle = append([]*instance{}, fn.idle[trim:]...)
		for _, in := range victims {
			p.releaseInstance(fn, in)
		}
		fn.recordLocked(now)
		fn.mu.Unlock()
		return -trim, nil
	}
	fn.mu.Unlock()
	return 0, nil
}

// provision pays one warm instance's placement and cold start, then parks
// it in the idle pool (idleLocked). Runs on its own clock goroutine.
func (p *platform) provision(fn *function, inst *instance) {
	if err := p.placeInstance(fn, inst); err != nil {
		fn.mu.Lock()
		fn.warming--
		fn.mu.Unlock()
		return
	}
	p.clock.Sleep(fn.cfg.ColdStart)
	now := p.clock.Now()
	fn.mu.Lock()
	fn.warming--
	parked := fn.idleLocked(inst, now)
	fn.recordLocked(now)
	fn.mu.Unlock()
	if parked {
		p.obsPrewarmed.Inc()
	}
}

// PoolTarget returns the current autoscaler target of tenant's function name
// (0 and false when the function is unknown).
func (p *Platform) PoolTarget(tenant, name string) (int, bool) {
	fn, err := p.lookup(tenant, name)
	if err != nil {
		return 0, false
	}
	fn.mu.Lock()
	defer fn.mu.Unlock()
	return fn.poolTarget, true
}
