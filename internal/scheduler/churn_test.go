package scheduler

import (
	"fmt"
	"sync"
	"testing"
)

// TestDrainAndGrowCycle exercises the autoscaler's machine lifecycle:
// Grow → Place → Release → DrainEmpty → Grow revives the drained hosts
// instead of provisioning new ones.
func TestDrainAndGrowCycle(t *testing.T) {
	c := NewCluster(machineCap, FirstFit{})
	c.Grow(4)
	if got := c.MachineCount(); got != 4 {
		t.Fatalf("MachineCount = %d, want 4", got)
	}

	// Fill one instance per machine via WorstFit-style manual spread:
	// FirstFit packs, so place demands that fill a machine each.
	full := Resources{CPU: 4000, MemMB: 16384}
	for i := 0; i < 4; i++ {
		mustPlace(t, c, fmt.Sprintf("i%d", i), full)
	}
	if got := c.DrainEmpty(4); got != 0 {
		t.Fatalf("DrainEmpty on a full cluster drained %d, want 0", got)
	}

	// Release the two highest machines' instances and drain them.
	for i := 2; i < 4; i++ {
		if err := c.Release(fmt.Sprintf("i%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.DrainEmpty(10); got != 2 {
		t.Fatalf("DrainEmpty drained %d, want 2", got)
	}
	if got, want := c.MachineCount(), 2; got != want {
		t.Fatalf("MachineCount after drain = %d, want %d", got, want)
	}
	if got := c.RetiredMachines(); got != 2 {
		t.Fatalf("RetiredMachines = %d, want 2", got)
	}

	// Machines 0, 1 are full, so placement grows the fleet: it revives the
	// lowest retired machine (2) rather than appending one.
	p, err := c.Place("j0", full)
	if err != nil {
		t.Fatal(err)
	}
	if p.Machine != 2 {
		t.Fatalf("placed on machine %d, want revived machine 2", p.Machine)
	}
	if got := c.RetiredMachines(); got != 1 {
		t.Fatalf("RetiredMachines after placement = %d, want 1", got)
	}

	// Grow revives the last retired machine before adding a new one.
	c.Grow(2)
	if got := len(c.Machines()); got != 5 {
		t.Fatalf("Grow(2) left %d machines, want 5 (one revived, one new)", got)
	}
	if got := c.RetiredMachines(); got != 0 {
		t.Fatalf("RetiredMachines after Grow = %d, want 0", got)
	}
	// Revived machines accept placements again.
	p, err = c.Place("j1", full)
	if err != nil {
		t.Fatal(err)
	}
	if p.Machine != 3 {
		t.Fatalf("revived placement on machine %d, want 3", p.Machine)
	}
}

// TestPlacementRevivesRetiredMachines: a fleet that drains and then
// re-grows on the placement path reuses its retired hosts before appending,
// exactly as Grow does, so repeated drain/burst cycles do not pile up
// retired machines.
func TestPlacementRevivesRetiredMachines(t *testing.T) {
	c := NewCluster(machineCap, FirstFit{})
	c.Grow(2)
	if got := c.DrainEmpty(2); got != 2 {
		t.Fatalf("DrainEmpty = %d, want 2", got)
	}
	full := Resources{CPU: 4000, MemMB: 16384}
	for i := 0; i < 3; i++ {
		mustPlace(t, c, fmt.Sprintf("i%d", i), full)
	}
	if got := len(c.Machines()); got != 3 {
		t.Fatalf("fleet = %d machines, want 3 (two revived, one new)", got)
	}
	if got := c.RetiredMachines(); got != 0 {
		t.Fatalf("RetiredMachines = %d, want 0", got)
	}
	if c.SlotsPerMachine(Resources{CPU: 1000, MemMB: 4096}) != 4 {
		t.Fatal("SlotsPerMachine != 4")
	}
	if c.SlotsPerMachine(Resources{Accel: 1}) != 0 {
		t.Fatal("accel demand should not fit an accel-free machine")
	}
}

// TestChurnInvariants hammers Grow/Place/Release/DrainEmpty concurrently
// (run under -race) and then asserts the bookkeeping invariants: every
// placed instance is accounted, ActiveMachines matches machines holding
// instances, MeanUtilization stays in [0,1], and a final release of
// everything returns the fleet to empty.
func TestChurnInvariants(t *testing.T) {
	c := NewCluster(machineCap, BestFit{})
	c.Grow(8)
	demand := Resources{CPU: 500, MemMB: 2048}

	const workers = 8
	const rounds = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := fmt.Sprintf("w%d-r%d", w, r)
				if _, err := c.PlaceTenant(id, fmt.Sprintf("t%d", w%3), demand); err != nil {
					t.Errorf("place %s: %v", id, err)
					return
				}
				if mu := c.MeanUtilization(); mu < 0 || mu > 1 {
					t.Errorf("MeanUtilization %v out of [0,1]", mu)
					return
				}
				if r%2 == 0 {
					if err := c.Release(id); err != nil {
						t.Errorf("release %s: %v", id, err)
						return
					}
				}
				if r%10 == 9 {
					c.DrainEmpty(1)
					c.Grow(1)
				}
			}
		}()
	}
	wg.Wait()

	// Every worker kept its odd-round placements: workers × rounds/2.
	want := workers * rounds / 2
	live := 0
	c.mu.Lock()
	for _, m := range c.machines {
		live += len(m.instances)
		if m.retired && len(m.instances) > 0 {
			t.Error("retired machine holds instances")
		}
	}
	placed := len(c.placed)
	c.mu.Unlock()
	if live != want || placed != want {
		t.Fatalf("live=%d placed=%d, want %d", live, placed, want)
	}

	active := 0
	c.mu.Lock()
	for _, m := range c.machines {
		if len(m.instances) > 0 {
			active++
		}
	}
	c.mu.Unlock()
	if got := c.ActiveMachines(); got != active {
		t.Fatalf("ActiveMachines = %d, want %d", got, active)
	}

	// Release the survivors; the fleet must return to empty.
	c.mu.Lock()
	ids := make([]string, 0, len(c.placed))
	for id := range c.placed {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	for _, id := range ids {
		if err := c.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.ActiveMachines(); got != 0 {
		t.Fatalf("ActiveMachines after full release = %d, want 0", got)
	}
	if got := c.MeanUtilization(); got != 0 {
		t.Fatalf("MeanUtilization after full release = %v, want 0", got)
	}
	n := len(c.Machines())
	if got := c.DrainEmpty(n + 1); got != n {
		t.Fatalf("DrainEmpty(all) = %d, want %d", got, n)
	}
	if got := c.MachineCount(); got != 0 {
		t.Fatalf("MachineCount after full drain = %d, want 0", got)
	}
}
