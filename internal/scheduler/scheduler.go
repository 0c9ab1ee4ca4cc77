// Package scheduler implements the cluster placement layer behind the
// platform, and the paper's §6 "SLA Guarantees" proposal: bin-packing
// techniques that pack functions onto machines based on heuristics ensuring
// performance isolation — e.g. packing together functions with complementary
// resource requirements (CPU-heavy with memory-heavy) so they do not contend.
//
// Machines expose a heterogeneous resource vector (CPU, memory, and an
// accelerator dimension standing in for the GPUs/TPUs/FPGAs of §6 "Hardware
// Heterogeneity"). Policies place instance demands onto machines; the
// experiments compare machine counts and contention across policies (E11,
// E12).
package scheduler

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/errs"
)

// Placement failures. Both wrap the platform-wide errs.ErrNoCapacity
// identity. ErrUnplaceable is permanent: the demand fits no machine even
// when empty, so no retry can succeed. ErrMachineFull is transient: the
// policy chose a machine without room instead of growing the fleet (a
// policy that holds the fleet finite), and it passes as instances leave.
var (
	ErrUnplaceable = fmt.Errorf("scheduler: demand exceeds machine capacity (%w)", errs.ErrNoCapacity)
	ErrMachineFull = fmt.Errorf("scheduler: chosen machine has no room (%w)", errs.ErrNoCapacity)
)

// Resources is a demand or capacity vector. Units are abstract (millicores,
// MB, accelerator slots); only ratios matter to the policies.
type Resources struct {
	CPU   float64
	MemMB float64
	Accel float64
}

// Add returns r + o.
func (r Resources) Add(o Resources) Resources {
	return Resources{r.CPU + o.CPU, r.MemMB + o.MemMB, r.Accel + o.Accel}
}

// Sub returns r - o.
func (r Resources) Sub(o Resources) Resources {
	return Resources{r.CPU - o.CPU, r.MemMB - o.MemMB, r.Accel - o.Accel}
}

// Fits reports whether demand o fits within r.
func (r Resources) Fits(o Resources) bool {
	return o.CPU <= r.CPU && o.MemMB <= r.MemMB && o.Accel <= r.Accel
}

// Dominant returns which dimension of r is largest relative to cap ("cpu",
// "mem" or "accel"). It drives the complementary-packing heuristic.
func (r Resources) Dominant(cap Resources) string {
	cpu, mem, acc := 0.0, 0.0, 0.0
	if cap.CPU > 0 {
		cpu = r.CPU / cap.CPU
	}
	if cap.MemMB > 0 {
		mem = r.MemMB / cap.MemMB
	}
	if cap.Accel > 0 {
		acc = r.Accel / cap.Accel
	}
	switch {
	case acc >= cpu && acc >= mem && acc > 0:
		return "accel"
	case cpu >= mem:
		return "cpu"
	default:
		return "mem"
	}
}

// Placement records where an instance landed.
type Placement struct {
	InstanceID string
	Machine    int
}

// Machine is one worker host.
type Machine struct {
	ID       int
	Capacity Resources
	Used     Resources
	// retired marks a machine drained out of the fleet by the autoscaler:
	// policies never place on it, and Grow revives retired machines before
	// provisioning new ones. Only empty machines can retire.
	retired bool
	// byDominant counts resident instances by dominant resource, used by
	// the contention model.
	byDominant map[string]int
	// byTenant counts resident instances per tenant, used by the
	// co-residency (security, §6) metrics and tenant-dedicated policies.
	byTenant  map[string]int
	instances map[string]Resources
}

// HostsOnly reports whether the machine is empty or hosts only the given
// tenant.
func (m *Machine) HostsOnly(tenant string) bool {
	if len(m.byTenant) == 0 {
		return true
	}
	_, ok := m.byTenant[tenant]
	return ok && len(m.byTenant) == 1
}

// Free returns the machine's remaining capacity.
func (m *Machine) Free() Resources { return m.Capacity.Sub(m.Used) }

// Utilization returns the max-dimension utilization in [0,1].
func (m *Machine) Utilization() float64 {
	var u float64
	if m.Capacity.CPU > 0 {
		u = math.Max(u, m.Used.CPU/m.Capacity.CPU)
	}
	if m.Capacity.MemMB > 0 {
		u = math.Max(u, m.Used.MemMB/m.Capacity.MemMB)
	}
	if m.Capacity.Accel > 0 {
		u = math.Max(u, m.Used.Accel/m.Capacity.Accel)
	}
	return u
}

// Policy selects a machine for a demand from the given tenant.
// Implementations return the index of the chosen machine in machines, or -1
// to request a new machine.
type Policy interface {
	Name() string
	Choose(machines []*Machine, demand Resources, tenant string) int
}

// Cluster is a growable fleet of identical machines under one policy.
type Cluster struct {
	mu       sync.Mutex
	template Resources
	policy   Policy
	machines []*Machine
	placed   map[string]int    // instance → machine
	tenantOf map[string]string // instance → tenant
}

// NewCluster creates an empty cluster that grows machines with the given
// per-machine capacity on demand.
func NewCluster(perMachine Resources, policy Policy) *Cluster {
	return &Cluster{template: perMachine, policy: policy, placed: map[string]int{}, tenantOf: map[string]string{}}
}

// Grow adds n machines to the placeable fleet (see addMachineLocked).
func (c *Cluster) Grow(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < n; i++ {
		c.addMachineLocked()
	}
}

// addMachineLocked adds one machine to the placeable fleet and returns it:
// the lowest-ID retired machine is revived (a drained host returning to
// service is cheaper than provisioning), else a new empty machine is
// appended. Grow and PlaceTenant's self-growth both go through it, so a
// fleet that drains and re-grows reuses its hosts. c.mu held.
func (c *Cluster) addMachineLocked() *Machine {
	for _, m := range c.machines {
		if m.retired {
			m.retired = false
			return m
		}
	}
	m := &Machine{
		ID:         len(c.machines),
		Capacity:   c.template,
		byDominant: map[string]int{},
		byTenant:   map[string]int{},
		instances:  map[string]Resources{},
	}
	c.machines = append(c.machines, m)
	return m
}

// DrainEmpty retires up to max empty machines (highest IDs first, so the
// fleet shrinks from its most recent growth), removing them from placement
// until Grow revives them. It returns how many machines were retired.
func (c *Cluster) DrainEmpty(max int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	drained := 0
	for i := len(c.machines) - 1; i >= 0 && drained < max; i-- {
		m := c.machines[i]
		if !m.retired && len(m.instances) == 0 {
			m.retired = true
			drained++
		}
	}
	return drained
}

// eligibleLocked returns the placeable (non-retired) machines. c.mu held.
func (c *Cluster) eligibleLocked() []*Machine {
	out := make([]*Machine, 0, len(c.machines))
	for _, m := range c.machines {
		if !m.retired {
			out = append(out, m)
		}
	}
	return out
}

// MachineCount returns the placeable (non-retired) machine count.
func (c *Cluster) MachineCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.eligibleLocked())
}

// RetiredMachines returns how many machines are currently drained out.
func (c *Cluster) RetiredMachines() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.machines {
		if m.retired {
			n++
		}
	}
	return n
}

// SlotsPerMachine returns how many instances of demand one empty machine
// holds (0 when the demand does not fit at all).
func (c *Cluster) SlotsPerMachine(demand Resources) int {
	free := c.template
	n := math.MaxInt
	dim := func(f, d float64) {
		if d > 0 {
			if k := int(f / d); k < n {
				n = k
			}
		}
	}
	dim(free.CPU, demand.CPU)
	dim(free.MemMB, demand.MemMB)
	dim(free.Accel, demand.Accel)
	if n == math.MaxInt || n < 0 {
		return 0
	}
	return n
}

// Place assigns an instance's demand to a machine, growing the cluster if
// the policy finds no fit: placement itself provisions, so no caller waits
// for capacity. Equivalent to PlaceTenant with an empty tenant.
func (c *Cluster) Place(instanceID string, demand Resources) (Placement, error) {
	return c.PlaceTenant(instanceID, "", demand)
}

// PlaceTenant assigns a tenant's instance to a machine.
func (c *Cluster) PlaceTenant(instanceID, tenant string, demand Resources) (Placement, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.template.Fits(demand) {
		return Placement{}, fmt.Errorf("%w: %+v > %+v", ErrUnplaceable, demand, c.template)
	}
	idx := c.policy.Choose(c.eligibleLocked(), demand, tenant)
	if idx < 0 {
		idx = c.addMachineLocked().ID
	} else if idx >= len(c.machines) || !c.machines[idx].Free().Fits(demand) {
		return Placement{}, fmt.Errorf("%w: policy %s chose machine %d for %+v",
			ErrMachineFull, c.policy.Name(), idx, demand)
	}
	m := c.machines[idx]
	m.Used = m.Used.Add(demand)
	m.byDominant[demand.Dominant(m.Capacity)]++
	m.byTenant[tenant]++
	m.instances[instanceID] = demand
	c.placed[instanceID] = idx
	c.tenantOf[instanceID] = tenant
	return Placement{InstanceID: instanceID, Machine: idx}, nil
}

// Release removes an instance from its machine.
func (c *Cluster) Release(instanceID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, ok := c.placed[instanceID]
	if !ok {
		return fmt.Errorf("scheduler: instance %q not placed", instanceID)
	}
	m := c.machines[idx]
	demand := m.instances[instanceID]
	tenant := c.tenantOf[instanceID]
	m.Used = m.Used.Sub(demand)
	m.byDominant[demand.Dominant(m.Capacity)]--
	m.byTenant[tenant]--
	if m.byTenant[tenant] == 0 {
		delete(m.byTenant, tenant)
	}
	delete(m.instances, instanceID)
	delete(c.placed, instanceID)
	delete(c.tenantOf, instanceID)
	return nil
}

// ContendersOf returns how many co-resident instances share the dominant
// resource of the given instance — the interference it currently suffers.
func (c *Cluster) ContendersOf(instanceID string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, ok := c.placed[instanceID]
	if !ok {
		return 0
	}
	m := c.machines[idx]
	dom := m.instances[instanceID].Dominant(m.Capacity)
	n := m.byDominant[dom] - 1
	if n < 0 {
		n = 0
	}
	return n
}

// CrossTenantPairs counts co-resident instance pairs belonging to different
// tenants — the §6 side-channel exposure surface: "functions of different
// tenants may run on the same physical hardware, increasing the likelihood
// of traditional side-channel attacks".
func (c *Cluster) CrossTenantPairs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, m := range c.machines {
		n := len(m.instances)
		allPairs := n * (n - 1) / 2
		samePairs := 0
		for _, cnt := range m.byTenant {
			samePairs += cnt * (cnt - 1) / 2
		}
		total += allPairs - samePairs
	}
	return total
}

// Machines returns a snapshot of the fleet.
func (c *Cluster) Machines() []Machine {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Machine, len(c.machines))
	for i, m := range c.machines {
		out[i] = Machine{ID: m.ID, Capacity: m.Capacity, Used: m.Used}
	}
	return out
}

// ActiveMachines counts machines hosting at least one instance.
func (c *Cluster) ActiveMachines() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.machines {
		if len(m.instances) > 0 {
			n++
		}
	}
	return n
}

// MeanUtilization averages max-dimension utilization over active machines.
func (c *Cluster) MeanUtilization() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum float64
	var n int
	for _, m := range c.machines {
		if len(m.instances) > 0 {
			sum += m.Utilization()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Contention scores the fleet's interference: for each machine, instances
// sharing the same dominant resource contend pairwise; the score is the total
// count of same-dominant pairs. Complementary packing drives it toward zero
// (§6's performance-isolation goal).
func (c *Cluster) Contention() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	score := 0
	for _, m := range c.machines {
		for _, n := range m.byDominant {
			score += n * (n - 1) / 2
		}
	}
	return score
}

// --- policies ---

// FirstFit places on the lowest-indexed machine with room.
type FirstFit struct{}

// Name implements Policy.
func (FirstFit) Name() string { return "first-fit" }

// Choose implements Policy.
func (FirstFit) Choose(machines []*Machine, demand Resources, _ string) int {
	for _, m := range machines {
		if m.Free().Fits(demand) {
			return m.ID
		}
	}
	return -1
}

// BestFit places on the machine whose free capacity is tightest after
// placement (minimizes fragmentation).
type BestFit struct{}

// Name implements Policy.
func (BestFit) Name() string { return "best-fit" }

// Choose implements Policy.
func (BestFit) Choose(machines []*Machine, demand Resources, _ string) int {
	best, bestSlack := -1, math.MaxFloat64
	for _, m := range machines {
		free := m.Free()
		if !free.Fits(demand) {
			continue
		}
		rem := free.Sub(demand)
		slack := rem.CPU + rem.MemMB/1024 + rem.Accel
		if slack < bestSlack {
			best, bestSlack = m.ID, slack
		}
	}
	return best
}

// WorstFit places on the machine with the most remaining room (spreads load).
type WorstFit struct{}

// Name implements Policy.
func (WorstFit) Name() string { return "worst-fit" }

// Choose implements Policy.
func (WorstFit) Choose(machines []*Machine, demand Resources, _ string) int {
	best, bestSlack := -1, -1.0
	for _, m := range machines {
		free := m.Free()
		if !free.Fits(demand) {
			continue
		}
		slack := free.CPU + free.MemMB/1024 + free.Accel
		if slack > bestSlack {
			best, bestSlack = m.ID, slack
		}
	}
	return best
}

// Complementary is the paper's §6 proposal: prefer machines where the
// demand's dominant resource is *not* already the dominant resource of
// resident instances, packing CPU-heavy with memory-heavy functions so they
// do not contend. Among non-contending candidates it behaves like best-fit.
type Complementary struct{}

// Name implements Policy.
func (Complementary) Name() string { return "complementary" }

// Choose implements Policy.
func (Complementary) Choose(machines []*Machine, demand Resources, _ string) int {
	type cand struct {
		id         int
		contenders int
		slack      float64
	}
	var cands []cand
	for _, m := range machines {
		free := m.Free()
		if !free.Fits(demand) {
			continue
		}
		dom := demand.Dominant(m.Capacity)
		rem := free.Sub(demand)
		cands = append(cands, cand{
			id:         m.ID,
			contenders: m.byDominant[dom],
			slack:      rem.CPU + rem.MemMB/1024 + rem.Accel,
		})
	}
	if len(cands) == 0 {
		return -1
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].contenders != cands[j].contenders {
			return cands[i].contenders < cands[j].contenders
		}
		if cands[i].slack != cands[j].slack {
			return cands[i].slack < cands[j].slack
		}
		return cands[i].id < cands[j].id
	})
	return cands[0].id
}

// TenantDedicated is the hardware-isolation end of §6's security spectrum:
// an instance only shares a machine with its own tenant, eliminating
// cross-tenant co-residency (and its side-channel exposure) at the price of
// lower consolidation. Within a tenant's machines it packs first-fit.
type TenantDedicated struct{}

// Name implements Policy.
func (TenantDedicated) Name() string { return "tenant-dedicated" }

// Choose implements Policy.
func (TenantDedicated) Choose(machines []*Machine, demand Resources, tenant string) int {
	for _, m := range machines {
		if m.HostsOnly(tenant) && len(m.instances) > 0 && m.Free().Fits(demand) {
			return m.ID
		}
	}
	// Reuse a fully empty machine before growing.
	for _, m := range machines {
		if len(m.instances) == 0 && m.Free().Fits(demand) {
			return m.ID
		}
	}
	return -1
}
