package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/simclock"
)

// The SLO engine keeps per-tenant windowed rollups on the platform clock and
// evaluates multi-window burn rates, Google-SRE style: a fast pair (5m + 1h)
// that pages, and a slow pair (30m + 6h) that tickets. Burn rate is the
// fraction of the error budget consumed relative to the rate that would
// exactly exhaust it over the objective period: burn 1.0 = on budget, burn
// 14.4 = the whole 30-day budget gone in 2 days.
const (
	sloBucket      = 30 * time.Second // rollup resolution
	sloRingLen     = 721              // 6h of buckets plus the in-progress one
	sloFirstRing   = 8                // cells a tenant's ring starts with
	sloMaxWindow   = 6 * time.Hour
	PageBurnRate   = 14.4 // both fast windows at/above this → page
	TicketBurnRate = 3.0  // both slow windows at/above this → ticket
)

// BurnWindows lists the evaluated windows, fast pair first.
var BurnWindows = []time.Duration{5 * time.Minute, time.Hour, 30 * time.Minute, sloMaxWindow}

// SLOConfig is one tenant's objectives.
type SLOConfig struct {
	Objective        float64       `json:"objective"`         // availability target, e.g. 0.999
	LatencyTarget    time.Duration `json:"latency_target_ns"` // requests slower than this are "slow"
	LatencyObjective float64       `json:"latency_objective"` // fraction that must be fast, e.g. 0.99
}

// DefaultSLOConfig is every tenant's objectives.
var DefaultSLOConfig = SLOConfig{
	Objective:        0.999,
	LatencyTarget:    500 * time.Millisecond,
	LatencyObjective: 0.99,
}

// sloCell is one 30 s bucket, 16 bytes: the epoch number fits a uint32 until
// the year 6053, and a count that reaches the top stays there (4 billion
// requests in one tenant's 30 s reads as 4 billion, not as a few).
type sloCell struct {
	epoch uint32 // bucket epoch (now / sloBucket); stale cells are lazily reset
	total uint32
	errs  uint32
	slow  uint32
}

// bump adds one to a cell count, saturating.
func bump(n *uint32) {
	if *n != math.MaxUint32 {
		*n++
	}
}

// TenantSLO accumulates one tenant's request outcomes. Handles are resolved
// once at function-registration time; Record is a mutex plus integer
// arithmetic — no map access, and no allocation once the ring has grown to
// the epochs the tenant's traffic spans. Outcomes may be recorded late and
// out of order (faas folds them from its invoke logs): each lands in the
// epoch of its own instant.
type TenantSLO struct {
	name  string
	clock simclock.Clock

	mu sync.Mutex
	// buckets is a ring indexed by epoch % len: nil until the first Record,
	// then sloFirstRing cells, doubled (capped at sloRingLen) whenever an
	// epoch would overwrite a cell that a 6 h window still reads — so it
	// holds exactly what a fixed sloRingLen ring would.
	buckets []sloCell
}

// epochOf numbers the 30 s bucket t is in.
func epochOf(t time.Time) uint32 {
	return uint32(t.UnixNano() / int64(sloBucket))
}

// epoch numbers the 30 s bucket the clock is in.
func (s *TenantSLO) epoch() uint32 {
	return epochOf(s.clock.Now())
}

// Record adds the outcome of one request that completed at the instant at,
// in at's epoch. No-op on nil.
func (s *TenantSLO) Record(at time.Time, d time.Duration, failed bool) {
	if s == nil {
		return
	}
	ep := epochOf(at)
	s.mu.Lock()
	if c := s.cellLocked(ep); c != nil {
		bump(&c.total)
		if failed {
			bump(&c.errs)
		}
		if d > DefaultSLOConfig.LatencyTarget {
			bump(&c.slow)
		}
	}
	s.mu.Unlock()
}

// cellLocked returns ep's cell, reset if it held an older epoch, or nil when
// it holds a newer one: ep is then sloRingLen epochs or more behind an
// epoch already recorded, so no window will ever read it, and a fixed ring
// fed in time order would have overwritten it too. Caller holds s.mu.
func (s *TenantSLO) cellLocked(ep uint32) *sloCell {
	if s.buckets == nil {
		s.buckets = make([]sloCell, sloFirstRing)
	}
	c := &s.buckets[ep%uint32(len(s.buckets))]
	// Below the cap, a used cell within sloRingLen epochs of ep, either way (a
	// Record may land out of order), is one the fixed ring keeps.
	for c.epoch != ep && c.total != 0 && (ep-c.epoch < sloRingLen || c.epoch-ep < sloRingLen) &&
		len(s.buckets) < sloRingLen {
		s.growLocked()
		c = &s.buckets[ep%uint32(len(s.buckets))]
	}
	if c.epoch != ep {
		if c.total != 0 && int32(c.epoch-ep) > 0 {
			return nil
		}
		*c = sloCell{epoch: ep}
	}
	return c
}

// growLocked doubles the ring, capped at sloRingLen, re-homing every used
// cell by epoch % len. Only the step to the cap can land two cells on one
// slot; their epochs then differ by a multiple of sloRingLen and the newer
// one stays, as in the fixed ring. Caller holds s.mu.
func (s *TenantSLO) growLocked() {
	grown := make([]sloCell, min(2*len(s.buckets), sloRingLen))
	for _, c := range s.buckets {
		if dst := &grown[c.epoch%uint32(len(grown))]; c.total != 0 && c.epoch >= dst.epoch {
			*dst = c
		}
	}
	s.buckets = grown
}

// windowLocked sums the cells covering [now-w, now]. Each epoch has at most
// one cell, so a scan of the ring finds them. Caller holds s.mu.
func (s *TenantSLO) windowLocked(nowEp uint32, w time.Duration) (total, errs, slow int64) {
	n := max(uint32(w/sloBucket), 1)
	for _, c := range s.buckets {
		if nowEp-c.epoch < n { // an epoch after nowEp wraps past n
			total += int64(c.total)
			errs += int64(c.errs)
			slow += int64(c.slow)
		}
	}
	return
}

// SLOWindow is one evaluated burn window.
type SLOWindow struct {
	Window      time.Duration `json:"window_ns"`
	Total       int64         `json:"total"`
	Errors      int64         `json:"errors"`
	Slow        int64         `json:"slow"`
	ErrorBurn   float64       `json:"error_burn"`
	LatencyBurn float64       `json:"latency_burn"`
}

// SLOSnapshot is one tenant's evaluated SLO state.
type SLOSnapshot struct {
	Tenant        string      `json:"tenant"`
	Config        SLOConfig   `json:"config"`
	Windows       []SLOWindow `json:"windows"`
	ErrorPage     bool        `json:"error_page"`
	ErrorTicket   bool        `json:"error_ticket"`
	LatencyPage   bool        `json:"latency_page"`
	LatencyTicket bool        `json:"latency_ticket"`
}

// snapshot evaluates all burn windows at the current clock instant.
func (s *TenantSLO) snapshot() SLOSnapshot {
	nowEp := s.epoch()
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SLOSnapshot{Tenant: s.name, Config: DefaultSLOConfig}
	errBudget := 1 - DefaultSLOConfig.Objective
	latBudget := 1 - DefaultSLOConfig.LatencyObjective
	burns := make([]SLOWindow, 0, len(BurnWindows))
	for _, w := range BurnWindows {
		total, errs, slow := s.windowLocked(nowEp, w)
		win := SLOWindow{Window: w, Total: total, Errors: errs, Slow: slow}
		if total > 0 {
			if errBudget > 0 {
				win.ErrorBurn = float64(errs) / float64(total) / errBudget
			}
			if latBudget > 0 {
				win.LatencyBurn = float64(slow) / float64(total) / latBudget
			}
		}
		burns = append(burns, win)
	}
	snap.Windows = burns
	// burns[0..1] is the fast pair (5m, 1h); burns[2..3] the slow (30m, 6h).
	snap.ErrorPage = burns[0].ErrorBurn >= PageBurnRate && burns[1].ErrorBurn >= PageBurnRate
	snap.LatencyPage = burns[0].LatencyBurn >= PageBurnRate && burns[1].LatencyBurn >= PageBurnRate
	snap.ErrorTicket = burns[2].ErrorBurn >= TicketBurnRate && burns[3].ErrorBurn >= TicketBurnRate
	snap.LatencyTicket = burns[2].LatencyBurn >= TicketBurnRate && burns[3].LatencyBurn >= TicketBurnRate
	return snap
}

// SLOEngine hands out per-tenant SLO accumulators.
type SLOEngine struct {
	clock simclock.Clock
	fold  func() // the registry's OnRead hooks

	mu      sync.RWMutex
	tenants map[string]*TenantSLO
}

func newSLOEngine(clock simclock.Clock, fold func()) *SLOEngine {
	return &SLOEngine{clock: clock, fold: fold, tenants: map[string]*TenantSLO{}}
}

// Tenant returns (creating with defaults if needed) the tenant's
// accumulator. Nil engine → nil accumulator, whose Record no-ops.
func (e *SLOEngine) Tenant(name string) *TenantSLO {
	if e == nil {
		return nil
	}
	return lookup(&e.mu, e.tenants, name, func() *TenantSLO {
		return &TenantSLO{name: name, clock: e.clock}
	})
}

// Snapshot evaluates every tenant, sorted by name, after the registry's
// OnRead hooks have folded what they hold. Empty on nil.
func (e *SLOEngine) Snapshot() []SLOSnapshot {
	if e == nil {
		return nil
	}
	e.fold()
	return e.evaluate()
}

// evaluate is Snapshot without the fold (Registry.Snapshot has run it).
func (e *SLOEngine) evaluate() []SLOSnapshot {
	if e == nil {
		return nil
	}
	e.mu.RLock()
	tenants := make([]*TenantSLO, 0, len(e.tenants))
	for _, s := range e.tenants {
		tenants = append(tenants, s)
	}
	e.mu.RUnlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	out := make([]SLOSnapshot, 0, len(tenants))
	for _, s := range tenants {
		out = append(out, s.snapshot())
	}
	return out
}

// WriteSLOText renders the engine's current evaluation as a human-readable
// report (the `taureau demo <name> -slo` output).
func (e *SLOEngine) WriteSLOText(w io.Writer) error {
	snaps := e.Snapshot()
	if len(snaps) == 0 {
		_, err := fmt.Fprintln(w, "no tenants with recorded traffic")
		return err
	}
	for _, s := range snaps {
		alert := "ok"
		switch {
		case s.ErrorPage || s.LatencyPage:
			alert = "PAGE"
		case s.ErrorTicket || s.LatencyTicket:
			alert = "TICKET"
		}
		if _, err := fmt.Fprintf(w, "tenant %-16s objective=%.4f latency<=%s@%.3f  [%s]\n",
			s.Tenant, s.Config.Objective, s.Config.LatencyTarget, s.Config.LatencyObjective, alert); err != nil {
			return err
		}
		for _, win := range s.Windows {
			if _, err := fmt.Fprintf(w, "  window %-6s total=%-8d errors=%-6d slow=%-6d err_burn=%-8.2f lat_burn=%-8.2f\n",
				win.Window, win.Total, win.Errors, win.Slow, win.ErrorBurn, win.LatencyBurn); err != nil {
				return err
			}
		}
	}
	return nil
}
