package jiffy

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
)

// These tests exercise the sharded locking introduced with per-namespace
// mutexes: distinct tenants must be able to hit the data plane concurrently
// without corrupting controller state, and lease expiry must be safe to fire
// while operations are in flight. They are meaningful mainly under -race.

// TestConcurrentTenants hammers Put/Get/Delete across many namespaces at
// once — the multi-tenant isolation claim (§4.4): traffic on one tenant's
// namespace must not perturb another's.
func TestConcurrentTenants(t *testing.T) {
	c := NewController(simclock.Real{}, nil, Config{Latency: NoLatency, DefaultLease: -1})
	c.AddNode("n0", 64)
	const tenants = 8
	nss := make([]*Namespace, tenants)
	for i := range nss {
		ns, err := c.CreateNamespace(fmt.Sprintf("/t%d", i), NamespaceOptions{InitialBlocks: 2})
		must(t, err)
		nss[i] = ns
	}
	iters := 2000
	if testing.Short() {
		iters = 300
	}
	var wg sync.WaitGroup
	for i, ns := range nss {
		wg.Add(1)
		go func(i int, ns *Namespace) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				key := fmt.Sprintf("k%d", n%32)
				if err := ns.Put(key, []byte(fmt.Sprintf("t%d-%d", i, n))); err != nil {
					t.Errorf("tenant %d: Put: %v", i, err)
					return
				}
				if _, err := ns.Get(key); err != nil {
					t.Errorf("tenant %d: Get: %v", i, err)
					return
				}
				if n%7 == 0 {
					if err := ns.Delete(key); err != nil && !errors.Is(err, ErrNoKey) {
						t.Errorf("tenant %d: Delete: %v", i, err)
						return
					}
				}
			}
		}(i, ns)
	}
	wg.Wait()
	// Pool accounting must still balance after the storm.
	used := 0
	for _, ns := range nss {
		used += ns.Blocks()
	}
	if free := c.FreeBlocks(); free != totalBlocks(c)-used {
		t.Fatalf("free = %d, want %d", free, totalBlocks(c)-used)
	}
}

// TestConcurrentGrowRacingReaders scales a namespace up and down while
// readers and writers stream against it: block-set changes (grow, rehash,
// shrink) must be invisible to concurrent data ops beyond ordinary
// serialization.
func TestConcurrentGrowRacingReaders(t *testing.T) {
	c := NewController(simclock.Real{}, nil, Config{Latency: NoLatency, DefaultLease: -1})
	c.AddNode("n0", 32)
	ns, err := c.CreateNamespace("/app", NamespaceOptions{InitialBlocks: 1})
	must(t, err)
	for i := 0; i < 64; i++ {
		must(t, ns.Put(fmt.Sprintf("seed%d", i), []byte("v")))
	}
	iters := 500
	if testing.Short() {
		iters = 100
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // scaler
		defer wg.Done()
		for n := 0; n < iters; n++ {
			if _, err := ns.Scale(1); err != nil && !errors.Is(err, ErrNoCapacity) {
				t.Errorf("Scale(+1): %v", err)
				return
			}
			if _, err := ns.Scale(-1); err != nil && !errors.Is(err, ErrMinBlocks) {
				t.Errorf("Scale(-1): %v", err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				key := fmt.Sprintf("seed%d", n%64)
				if _, err := ns.Get(key); err != nil {
					t.Errorf("reader %d: Get(%s): %v", g, key, err)
					return
				}
				if err := ns.Put(fmt.Sprintf("w%d-%d", g, n%16), []byte("x")); err != nil {
					t.Errorf("reader %d: Put: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestExpiryDuringInFlightOps lets short leases lapse while goroutines are
// mid-operation on the expiring namespaces. Every op must either succeed or
// fail with ErrNoNamespace — never corrupt state or trip the race detector.
func TestExpiryDuringInFlightOps(t *testing.T) {
	c := NewController(simclock.Real{}, nil, Config{Latency: NoLatency, DefaultLease: -1})
	c.AddNode("n0", 64)
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ns, err := c.CreateNamespace(fmt.Sprintf("/g%d-r%d", g, r), NamespaceOptions{Lease: time.Millisecond})
				if err != nil {
					t.Errorf("g%d: create: %v", g, err)
					return
				}
				deadline := time.Now().Add(3 * time.Millisecond)
				for time.Now().Before(deadline) {
					if err := ns.Put("k", []byte("v")); err != nil && !errors.Is(err, ErrNoNamespace) {
						t.Errorf("g%d: Put: %v", g, err)
						return
					}
					if _, err := ns.Get("k"); err != nil &&
						!errors.Is(err, ErrNoNamespace) && !errors.Is(err, ErrNoKey) {
						t.Errorf("g%d: Get: %v", g, err)
						return
					}
					if err := ns.Enqueue([]byte("q")); err != nil && !errors.Is(err, ErrNoNamespace) {
						t.Errorf("g%d: Enqueue: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Wait out the last leases, reap, and check every block came home.
	time.Sleep(5 * time.Millisecond)
	if free, total := c.FreeBlocks(), totalBlocks(c); free != total {
		t.Fatalf("free = %d after all leases lapsed, want %d", free, total)
	}
}

// TestExpiredNamespaceRejectsAllOps is the regression test for the lease
// uniformity bug: Delete and the queue ops used to skip lease reaping, so an
// expired namespace kept accepting them. Every data-plane op must now see
// ErrNoNamespace once the lease lapses.
func TestExpiredNamespaceRejectsAllOps(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	c := NewController(v, nil, Config{Latency: NoLatency})
	c.AddNode("n0", 8)
	v.Run(func() {
		ns, err := c.CreateNamespace("/job", NamespaceOptions{Lease: time.Second})
		must(t, err)
		must(t, ns.Put("k", []byte("v")))
		must(t, ns.Enqueue([]byte("item")))
		v.Sleep(2 * time.Second)
		checks := map[string]error{
			"Put":     ns.Put("k2", []byte("v")),
			"Delete":  ns.Delete("k"),
			"Enqueue": ns.Enqueue([]byte("late")),
		}
		if _, err := ns.Get("k"); true {
			checks["Get"] = err
		}
		if _, err := ns.Dequeue(); true {
			checks["Dequeue"] = err
		}
		if _, err := ns.Scale(1); true {
			checks["Scale"] = err
		}
		for op, err := range checks {
			if !errors.Is(err, ErrNoNamespace) {
				t.Errorf("%s on expired namespace = %v, want ErrNoNamespace", op, err)
			}
		}
	})
}
