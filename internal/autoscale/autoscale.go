// Package autoscale is the platform's elastic control plane: a control loop
// that watches per-function load (in-flight concurrency, invocation deltas) and
// drives both the instance pools (faas.SetPoolTarget) and the machine fleet
// (scheduler.Grow / DrainEmpty) toward demand. Placement itself grows the
// fleet when no machine fits, so no invocation waits on the loop for
// capacity: the loop pre-sizes the fleet ahead of demand and drains it after.
//
// It implements the reactive core the paper attributes to production FaaS
// platforms (§4.1 "resource elasticity", §6 "A Look Forward"): a
// Knative-KPA-style dual-window autoscaler — a slow stable window that sets
// steady-state capacity and a fast panic window that reacts to bursts and
// never scales down while panicking — plus scale-to-zero after idle (the
// defining serverless property, §2) with the function's keep-alive as the
// floor.
//
// The controller ticks on a simclock.Clock, so experiments drive it under
// the virtual clock with byte-identical results run over run.
package autoscale

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/simclock"
)

// Config tunes the control loop. The zero value gets sensible defaults.
type Config struct {
	// TickInterval is the control-loop period. Default 2s.
	TickInterval time.Duration
	// StableWindow smooths the in-flight signal for steady-state sizing;
	// it is also how long panic mode persists after its last trigger.
	// Default 60s.
	StableWindow time.Duration
	// PanicWindow smooths the in-flight signal for burst detection.
	// Default 6s.
	PanicWindow time.Duration
	// ScaleToZeroAfter reclaims a function's last instances once it has
	// been idle this long. A function's own KeepAlive acts as a floor:
	// the effective delay is max(ScaleToZeroAfter, KeepAlive). Default 60s.
	ScaleToZeroAfter time.Duration
	// DrainDelay is how long machine surplus must persist before empty
	// machines are drained — hysteresis against thrashing. Default 30s.
	DrainDelay time.Duration
}

const (
	// targetPerInstance is the in-flight concurrency one instance should
	// carry (Knative's container-concurrency target).
	targetPerInstance = 1.0
	// panicThreshold enters panic mode when the panic-window desired
	// instance count reaches this multiple of current capacity.
	panicThreshold = 2.0
	// maxScaleUpRate caps growth per tick as a multiple of current capacity
	// (Knative's max-scale-up-rate).
	maxScaleUpRate = 10.0
)

func (c Config) withDefaults() Config {
	if c.TickInterval <= 0 {
		c.TickInterval = 2 * time.Second
	}
	if c.StableWindow <= 0 {
		c.StableWindow = 60 * time.Second
	}
	if c.PanicWindow <= 0 {
		c.PanicWindow = 6 * time.Second
	}
	if c.ScaleToZeroAfter <= 0 {
		c.ScaleToZeroAfter = 60 * time.Second
	}
	if c.DrainDelay <= 0 {
		c.DrainDelay = 30 * time.Second
	}
	return c
}

// fnState is the controller's per-function memory between ticks.
type fnState struct {
	name   string // bare function name (display)
	tenant string // owning tenant

	stable     float64 // stable-window EWMA of in-flight concurrency
	panicky    float64 // panic-window EWMA of in-flight concurrency
	seeded     bool
	everActive bool
	lastActive time.Time
	panicUntil time.Time

	lastInvocations int64

	desired int

	desiredGauge *obs.Gauge // autoscale.desired.<fn>
}

// Controller is the autoscaling control loop over one faas.Platform and
// (optionally) its scheduler.Cluster.
type Controller struct {
	clock   simclock.Clock
	p       *faas.Platform
	cluster *scheduler.Cluster
	cfg     Config

	mu           sync.Mutex
	fns          map[string]*fnState
	ticks        int64
	started      bool
	stopped      bool
	surplusSince time.Time

	reg        *obs.Registry
	ticksCtr   *obs.Counter
	panicGauge *obs.Gauge
	machGauge  *obs.Gauge
	wantGauge  *obs.Gauge
	grownCtr   *obs.Counter
	drainedCtr *obs.Counter
}

// New builds a controller. cluster may be nil (instance pools only).
func New(clock simclock.Clock, p *faas.Platform, cluster *scheduler.Cluster, cfg Config) *Controller {
	return &Controller{
		clock:   clock,
		p:       p,
		cluster: cluster,
		cfg:     cfg.withDefaults(),
		fns:     map[string]*fnState{},
	}
}

// SetObs attaches metrics: autoscale.ticks, autoscale.panic (functions in
// panic mode), autoscale.machines, autoscale.desired (total desired
// instances, plus a per-function autoscale.desired.<fn> gauge),
// autoscale.machines.grown / .drained.
func (c *Controller) SetObs(r *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg = r
	c.ticksCtr = r.Counter("autoscale.ticks")
	c.panicGauge = r.Gauge("autoscale.panic")
	c.machGauge = r.Gauge("autoscale.machines")
	c.wantGauge = r.Gauge("autoscale.desired")
	c.grownCtr = r.Counter("autoscale.machines.grown")
	c.drainedCtr = r.Counter("autoscale.machines.drained")
}

// Start launches the tick loop on the controller's clock. Idempotent.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.stopped = false
	c.mu.Unlock()
	c.clock.Go(func() {
		for {
			c.clock.Sleep(c.cfg.TickInterval)
			c.mu.Lock()
			done := c.stopped
			c.mu.Unlock()
			if done {
				return
			}
			c.Tick()
		}
	})
}

// Stop ends the tick loop (it exits at its next tick boundary, so under the
// virtual clock the loop goroutine drains before Run returns).
func (c *Controller) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.started = false
	c.mu.Unlock()
}

// alphaFor converts a smoothing window to a per-tick EWMA weight.
func alphaFor(tick, window time.Duration) float64 {
	if window <= tick {
		return 1
	}
	return 1 - math.Exp(-float64(tick)/float64(window))
}

// Tick runs one control-loop evaluation: read loads, update the per-function
// windows, size the machine fleet, and push pool targets. Exported so tests
// and smoke drivers can step the loop without the background goroutine.
func (c *Controller) Tick() {
	now := c.clock.Now()
	loads := c.p.Loads()

	c.mu.Lock()
	c.ticks++
	alphaS := alphaFor(c.cfg.TickInterval, c.cfg.StableWindow)
	alphaP := alphaFor(c.cfg.TickInterval, c.cfg.PanicWindow)

	type action struct {
		tenant, name string
		desired      int
	}
	actions := make([]action, 0, len(loads))
	var (
		machinesNeeded float64
		panicking      int
		totalDesired   int
	)
	for _, l := range loads {
		// State is keyed by the "tenant/name" label: two tenants' same-named
		// functions are scaled independently.
		s := c.fns[l.Key]
		if s == nil {
			s = &fnState{name: l.Name, tenant: l.Tenant, lastActive: now}
			if c.reg != nil {
				s.desiredGauge = c.reg.Gauge("autoscale.desired." + l.Key)
			}
			c.fns[l.Key] = s
		}

		inflight := float64(l.Running)
		delta := l.Invocations - s.lastInvocations
		s.lastInvocations = l.Invocations

		if delta > 0 || l.Running > 0 {
			s.lastActive = now
			s.everActive = true
		}

		if !s.seeded {
			s.stable, s.panicky, s.seeded = inflight, inflight, true
		} else {
			s.stable += alphaS * (inflight - s.stable)
			s.panicky += alphaP * (inflight - s.panicky)
		}

		current := l.Pool()
		desiredStable := int(math.Ceil(s.stable / targetPerInstance))
		desiredPanic := int(math.Ceil(s.panicky / targetPerInstance))

		// Enter (or extend) panic when the fast window wants a multiple of
		// what the controller last asked for — instances self-materialize on
		// the invoke path, so the pool itself chases inflight too closely to
		// be the burst baseline. Panic persists for a stable window.
		if float64(desiredPanic) >= panicThreshold*math.Max(float64(s.desired), 1) {
			s.panicUntil = now.Add(c.cfg.StableWindow)
		}
		desired := desiredStable
		if now.Before(s.panicUntil) {
			// Panic mode sizes from the fast window and never scales down.
			if desiredPanic > desired {
				desired = desiredPanic
			}
			if s.desired > desired {
				desired = s.desired
			}
			panicking++
		}

		// Scale-to-zero: hold the last instance until the function has been
		// idle for max(ScaleToZeroAfter, KeepAlive); once the window lapses,
		// zero is authoritative — the EWMA's exponential tail must not pin
		// a ghost instance (ceil of any positive remnant is 1).
		zeroAfter := c.cfg.ScaleToZeroAfter
		if l.KeepAlive > zeroAfter {
			zeroAfter = l.KeepAlive
		}
		if s.everActive && now.Sub(s.lastActive) >= zeroAfter {
			desired = 0
			s.stable, s.panicky = 0, 0
		} else if desired == 0 && s.everActive {
			desired = 1
		}
		if l.Prewarm > desired {
			desired = l.Prewarm
		}
		// Rate-limit growth, then respect the concurrency cap.
		if maxUp := int(math.Ceil(math.Max(float64(current), 1) * maxScaleUpRate)); desired > maxUp {
			desired = maxUp
		}
		if desired > l.MaxConcurrency {
			desired = l.MaxConcurrency
		}
		s.desired = desired
		s.desiredGauge.Set(float64(desired))
		totalDesired += desired
		actions = append(actions, action{tenant: l.Tenant, name: l.Name, desired: desired})

		if c.cluster != nil {
			footprint := desired
			if current > footprint {
				footprint = current
			}
			if slots := c.cluster.SlotsPerMachine(l.Demand); slots > 0 {
				machinesNeeded += float64(footprint) / float64(slots)
			}
		}
	}
	c.ticksCtr.Inc()
	c.panicGauge.Set(float64(panicking))
	c.wantGauge.Set(float64(totalDesired))

	// Size the fleet before pushing pool targets, so the provisioning the
	// targets trigger finds machines to land on.
	if c.cluster != nil {
		target := int(math.Ceil(machinesNeeded))
		cur := c.cluster.MachineCount()
		switch {
		case target > cur:
			c.cluster.Grow(target - cur)
			c.grownCtr.Add(int64(target - cur))
			c.surplusSince = time.Time{}
		case target < cur:
			if c.surplusSince.IsZero() {
				c.surplusSince = now
			} else if now.Sub(c.surplusSince) >= c.cfg.DrainDelay {
				if n := c.cluster.DrainEmpty(cur - target); n > 0 {
					c.drainedCtr.Add(int64(n))
				}
				c.surplusSince = time.Time{}
			}
		default:
			c.surplusSince = time.Time{}
		}
		c.machGauge.Set(float64(c.cluster.MachineCount()))
	}
	c.mu.Unlock()

	// Push pool targets outside c.mu: SetPoolTarget takes platform locks
	// and spawns provisioning goroutines.
	for _, a := range actions {
		_, _ = c.p.SetPoolTarget(a.tenant, a.name, a.desired)
	}
}

// FnStatus is one function's autoscaler view.
type FnStatus struct {
	Name           string        `json:"name"`
	Tenant         string        `json:"tenant"`
	StableInflight float64       `json:"stable_inflight"`
	PanicInflight  float64       `json:"panic_inflight"`
	Desired        int           `json:"desired"`
	PanicMode      bool          `json:"panic_mode"`
	IdleFor        time.Duration `json:"idle_for"`
}

// Status is a point-in-time snapshot of the control loop, served by
// `taureau demo <name> -serve` at /autoscale.
type Status struct {
	Ticks     int64      `json:"ticks"`
	Machines  int        `json:"machines"`
	Retired   int        `json:"retired"`
	Functions []FnStatus `json:"functions"`
}

// Status snapshots the controller.
func (c *Controller) Status() Status {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{Ticks: c.ticks}
	if c.cluster != nil {
		st.Machines = c.cluster.MachineCount()
		st.Retired = c.cluster.RetiredMachines()
	}
	keys := make([]string, 0, len(c.fns))
	for key := range c.fns {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		s := c.fns[key]
		st.Functions = append(st.Functions, FnStatus{
			Name:           s.name,
			Tenant:         s.tenant,
			StableInflight: s.stable,
			PanicInflight:  s.panicky,
			Desired:        s.desired,
			PanicMode:      now.Before(s.panicUntil),
			IdleFor:        now.Sub(s.lastActive),
		})
	}
	return st
}
