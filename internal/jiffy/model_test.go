package jiffy

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simclock"
)

// TestModelRandomOpsAndScaling drives a namespace with random puts, deletes
// and scalings and checks it stays equivalent to a plain map — the
// model-based test that repartitioning never loses or corrupts data.
func TestModelRandomOpsAndScaling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewController(simclock.Real{}, nil, Config{Latency: NoLatency, DefaultLease: -1, BlockSize: 1 << 16})
		c.AddNode("n0", 64)
		ns, err := c.CreateNamespace("/m", NamespaceOptions{InitialBlocks: 2})
		if err != nil {
			return false
		}
		model := map[string]string{}
		for op := 0; op < 300; op++ {
			key := fmt.Sprintf("k%d", rng.Intn(40))
			switch rng.Intn(5) {
			case 0, 1: // put
				val := fmt.Sprintf("v%d", rng.Intn(1000))
				if err := ns.Put(key, []byte(val)); err != nil {
					return false
				}
				model[key] = val
			case 2: // delete
				err := ns.Delete(key)
				_, exists := model[key]
				if exists != (err == nil) {
					return false
				}
				delete(model, key)
			case 3: // get
				got, err := ns.Get(key)
				want, exists := model[key]
				if exists != (err == nil) {
					return false
				}
				if exists && string(got) != want {
					return false
				}
			case 4: // scale up or down
				delta := rng.Intn(3) - 1
				if delta != 0 {
					if _, err := ns.Scale(delta); err != nil && ns.Blocks() > 1 {
						return false
					}
				}
			}
		}
		// Final equivalence.
		keys := ns.Keys()
		if len(keys) != len(model) {
			return false
		}
		for _, k := range keys {
			got, err := ns.Get(k)
			if err != nil || string(got) != model[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPoolAccountingInvariant: allocated + free always equals the pool total
// through arbitrary create/scale/expire churn.
func TestPoolAccountingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	v := simclock.NewVirtual()
	defer v.Close()
	c := NewController(v, nil, Config{Latency: NoLatency})
	c.AddNode("a", 32)
	c.AddNode("b", 32)
	total := totalBlocks(c)
	var spaces []*Namespace
	v.Run(func() {
		for i := 0; i < 200; i++ {
			switch rng.Intn(3) {
			case 0:
				lease := time.Duration(1+rng.Intn(5)) * time.Second
				ns, err := c.CreateNamespace(fmt.Sprintf("/ns%d", i), NamespaceOptions{Lease: lease, InitialBlocks: 1 + rng.Intn(3)})
				if err == nil {
					spaces = append(spaces, ns)
				}
			case 1:
				if len(spaces) > 0 {
					idx := rng.Intn(len(spaces))
					_, _ = spaces[idx].Scale(rng.Intn(5) - 2)
				}
			case 2:
				v.Sleep(time.Second) // leases lapse; FreeBlocks reaps them
			}
			free := c.FreeBlocks()
			allocated := 0
			for _, ns := range spaces {
				allocated += ns.Blocks()
			}
			if allocated+free != total {
				t.Fatalf("iteration %d: allocated %d + free %d != total %d", i, allocated, free, total)
			}
		}
	})
}
