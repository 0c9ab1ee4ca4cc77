package jiffy

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/simclock"
)

func newCtrl(blocks int) *Controller {
	c := NewController(simclock.Real{}, nil, Config{Latency: NoLatency, DefaultLease: -1})
	c.AddNode("node-0", blocks)
	return c
}

func TestPutGetDelete(t *testing.T) {
	c := newCtrl(8)
	ns, err := c.CreateNamespace("/app", NamespaceOptions{})
	must(t, err)
	must(t, ns.Put("k", []byte("v")))
	v, err := ns.Get("k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q %v", v, err)
	}
	must(t, ns.Delete("k"))
	if _, err := ns.Get("k"); !errors.Is(err, ErrNoKey) {
		t.Fatalf("err = %v", err)
	}
	if err := ns.Delete("k"); !errors.Is(err, ErrNoKey) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestHierarchicalNamespaces(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	c := NewController(v, nil, Config{Latency: NoLatency, DefaultLease: -1})
	c.AddNode("node-0", 16)
	app, err := c.CreateNamespace("/tenant", NamespaceOptions{Lease: time.Second})
	must(t, err)
	task, err := app.CreateChild("task1", NamespaceOptions{})
	must(t, err)
	if task.Path() != "/tenant/task1" {
		t.Fatalf("path = %q", task.Path())
	}
	// Parents must exist.
	if _, err := c.CreateNamespace("/ghost/child", NamespaceOptions{}); !errors.Is(err, ErrNoNamespace) {
		t.Fatalf("err = %v", err)
	}
	// Duplicate rejected.
	if _, err := c.CreateNamespace("/tenant", NamespaceOptions{}); !errors.Is(err, ErrNsExists) {
		t.Fatalf("err = %v", err)
	}
	if len(app.children) != 1 || app.children["task1"] != task {
		t.Fatalf("children = %v", app.children)
	}
	// An expiring parent frees its descendants, leased or not.
	free := c.FreeBlocks()
	v.Run(func() { v.Sleep(2 * time.Second) })
	if c.FreeBlocks() != free+2 {
		t.Fatalf("blocks not freed: %d → %d", free, c.FreeBlocks())
	}
	if _, err := c.Namespace("/tenant/task1"); !errors.Is(err, ErrNoNamespace) {
		t.Fatalf("child survived parent removal: %v", err)
	}
}

func TestBadPaths(t *testing.T) {
	c := newCtrl(4)
	for _, p := range []string{"", "/", "x", "//a", "/a//b"} {
		if _, err := c.CreateNamespace(p, NamespaceOptions{}); !errors.Is(err, ErrBadPath) {
			t.Fatalf("CreateNamespace(%q) err = %v", p, err)
		}
	}
	ns, _ := c.CreateNamespace("/ok", NamespaceOptions{})
	if _, err := ns.CreateChild("bad/name", NamespaceOptions{}); !errors.Is(err, ErrBadPath) {
		t.Fatalf("err = %v", err)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	c := newCtrl(2)
	_, err := c.CreateNamespace("/a", NamespaceOptions{InitialBlocks: 2})
	must(t, err)
	if _, err := c.CreateNamespace("/b", NamespaceOptions{}); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v", err)
	}
}

func TestMultiplexingAcrossShortLivedApps(t *testing.T) {
	// The pool holds 2 blocks, but 10 sequential short-lived apps can all
	// run — insight (1): short task lifetimes let capacity multiplex.
	v := simclock.NewVirtual()
	defer v.Close()
	c := NewController(v, nil, Config{Latency: NoLatency})
	c.AddNode("n0", 2)
	v.Run(func() {
		for i := 0; i < 10; i++ {
			ns, err := c.CreateNamespace(fmt.Sprintf("/app%d", i), NamespaceOptions{Lease: time.Second, InitialBlocks: 2})
			must(t, err)
			must(t, ns.Put("x", []byte("y")))
			v.Sleep(2 * time.Second) // lease lapses; blocks return to pool
		}
	})
	if c.FreeBlocks() != 2 {
		t.Fatalf("free blocks = %d, want 2", c.FreeBlocks())
	}
}

func TestLeaseExpiryAndRenewal(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	c := NewController(v, nil, Config{Latency: NoLatency})
	c.AddNode("n0", 4)
	v.Run(func() {
		ns, err := c.CreateNamespace("/job", NamespaceOptions{Lease: 10 * time.Second})
		must(t, err)
		must(t, ns.Put("state", []byte("data")))
		v.Sleep(6 * time.Second)
		must(t, ns.Renew()) // consumer keeps state alive past producer death
		v.Sleep(6 * time.Second)
		if _, err := ns.Get("state"); err != nil {
			t.Errorf("state lost despite renewal: %v", err)
		}
		v.Sleep(11 * time.Second)
		if _, err := ns.Get("state"); !errors.Is(err, ErrNoNamespace) {
			t.Errorf("state survived lease expiry: %v", err)
		}
		if err := ns.Renew(); !errors.Is(err, ErrNoNamespace) {
			t.Errorf("renew after expiry = %v", err)
		}
	})
}

// TestLapsedAnswersIgnoreTimerLateness: on the real clock a lease's expiry
// timer runs when the runtime gets to it, so every answer after the deadline
// must come from the deadline itself. Each round lapses a 1 µs lease and
// asks at once, sometimes before the timer has run and sometimes after; the
// path's next CreateNamespace needs the lapsed holder's two blocks, which
// exist only if it is reclaimed first.
func TestLapsedAnswersIgnoreTimerLateness(t *testing.T) {
	c := NewController(simclock.Real{}, nil, Config{Latency: NoLatency})
	c.AddNode("n0", 2)
	for i := 0; i < 200; i++ {
		ns, err := c.CreateNamespace("/job", NamespaceOptions{Lease: time.Microsecond, InitialBlocks: 2})
		if err != nil {
			t.Fatalf("round %d: CreateNamespace over a lapsed holder = %v", i, err)
		}
		for time.Now().UnixNano() <= ns.deadline.Load() {
		}
		if err := ns.Renew(); !errors.Is(err, ErrLeaseExpired) {
			t.Fatalf("round %d: Renew after the deadline = %v, want ErrLeaseExpired", i, err)
		}
		if err := ns.Put("k", []byte("v")); !errors.Is(err, ErrLeaseExpired) {
			t.Fatalf("round %d: Put after the deadline = %v, want ErrLeaseExpired", i, err)
		}
	}
	for c.FreeBlocks() != 2 { // the last round's timer returns its blocks
		time.Sleep(time.Millisecond)
	}
}

// TestLapsedAncestorBindsItsSubtree: a namespace lives only while every one
// above it does, whether or not the lapsed one's timer has run. Before the
// parent's timer can run, its child answers an op at the parent's deadline
// plus 1 ns with ErrLeaseExpired; then, on the real clock, each round lapses a
// 200 µs parent over a child leased for an hour and asks at once — the child's
// ops and Renew answer ErrLeaseExpired, and a CreateNamespace under the
// parent finds no parent — sometimes before the parent's timer has run and
// sometimes after.
func TestLapsedAncestorBindsItsSubtree(t *testing.T) {
	c := NewController(simclock.Real{}, nil, Config{Latency: NoLatency})
	c.AddNode("n0", 4)
	parent, err := c.CreateNamespace("/held", NamespaceOptions{Lease: time.Hour})
	must(t, err)
	child, err := parent.CreateChild("task", NamespaceOptions{Lease: 2 * time.Hour})
	must(t, err)
	at := time.Unix(0, parent.deadline.Load())
	if err := child.lockLive(at); err != nil {
		t.Fatalf("child at its parent's deadline = %v, want live", err)
	}
	child.mu.Unlock()
	if err := child.lockLive(at.Add(time.Nanosecond)); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("child 1 ns past its parent's deadline = %v, want ErrLeaseExpired", err)
	}

	checked := 0
	for i := 0; i < 200; i++ {
		parent, err := c.CreateNamespace("/app", NamespaceOptions{Lease: 200 * time.Microsecond})
		if err != nil {
			t.Fatalf("round %d: CreateNamespace over a lapsed holder = %v", i, err)
		}
		child, err := parent.CreateChild("task", NamespaceOptions{Lease: time.Hour})
		if err != nil {
			if errors.Is(err, ErrNoNamespace) {
				continue // the parent lapsed first
			}
			t.Fatalf("round %d: CreateChild = %v", i, err)
		}
		for time.Now().UnixNano() <= parent.deadline.Load() {
		}
		if err := child.Put("k", []byte("v")); !errors.Is(err, ErrLeaseExpired) {
			t.Fatalf("round %d: child Put after its parent's deadline = %v, want ErrLeaseExpired", i, err)
		}
		if err := child.Renew(); !errors.Is(err, ErrLeaseExpired) {
			t.Fatalf("round %d: child Renew after its parent's deadline = %v, want ErrLeaseExpired", i, err)
		}
		if _, err := parent.CreateChild("sibling", NamespaceOptions{Lease: time.Hour}); !errors.Is(err, ErrNoNamespace) {
			t.Fatalf("round %d: CreateChild under a lapsed parent = %v, want ErrNoNamespace", i, err)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("%d of 200 rounds created the child before its parent lapsed, want most", checked)
	}
	for c.FreeBlocks() != 2 { // the last round's timer returns its blocks; /held keeps two
		time.Sleep(time.Millisecond)
	}
}

func TestExpiryNotification(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	c := NewController(v, nil, Config{Latency: NoLatency})
	c.AddNode("n0", 4)
	v.Run(func() {
		_, err := c.CreateNamespace("/job", NamespaceOptions{Lease: time.Second})
		must(t, err)
		var events []Event
		must(t, c.Subscribe("/job", func(e Event) { events = append(events, e) }))
		v.Sleep(2 * time.Second)
		if len(events) != 1 || events[0].Type != EventExpired {
			t.Errorf("events = %+v", events)
		}
	})
}

func TestPutGetNotifications(t *testing.T) {
	c := newCtrl(4)
	ns, _ := c.CreateNamespace("/app", NamespaceOptions{})
	var events []Event
	must(t, c.Subscribe("/app", func(e Event) { events = append(events, e) }))
	must(t, ns.Put("k", []byte("v")))
	must(t, ns.Delete("k"))
	must(t, ns.Enqueue([]byte("item")))
	_, err := ns.Dequeue()
	must(t, err)
	want := []EventType{EventPut, EventRemove, EventPut, EventRemove}
	if len(events) != len(want) {
		t.Fatalf("events = %+v", events)
	}
	for i, w := range want {
		if events[i].Type != w {
			t.Fatalf("event %d = %+v, want type %d", i, events[i], w)
		}
	}
	if events[0].Key != "k" {
		t.Fatalf("put event key = %q", events[0].Key)
	}
}

func TestQueueFIFO(t *testing.T) {
	c := newCtrl(4)
	ns, _ := c.CreateNamespace("/q", NamespaceOptions{})
	for i := 0; i < 5; i++ {
		must(t, ns.Enqueue([]byte{byte(i)}))
	}
	if len(ns.fifo) != 5 {
		t.Fatalf("len = %d", len(ns.fifo))
	}
	for i := 0; i < 5; i++ {
		item, err := ns.Dequeue()
		must(t, err)
		if item[0] != byte(i) {
			t.Fatalf("dequeue %d = %d", i, item[0])
		}
	}
	if _, err := ns.Dequeue(); !errors.Is(err, ErrEmptyQueue) {
		t.Fatalf("err = %v", err)
	}
}

func TestAutoScaleOnBlockFull(t *testing.T) {
	c := NewController(simclock.Real{}, nil, Config{BlockSize: 64, Latency: NoLatency, DefaultLease: -1})
	c.AddNode("n0", 8)
	ns, err := c.CreateNamespace("/grow", NamespaceOptions{})
	must(t, err)
	before := ns.Blocks()
	for i := 0; i < 20; i++ {
		must(t, ns.Put(fmt.Sprintf("key-%02d", i), []byte("0123456789")))
	}
	if ns.Blocks() <= before {
		t.Fatalf("namespace did not grow: %d blocks", ns.Blocks())
	}
	// All keys still readable after repartitioning.
	for i := 0; i < 20; i++ {
		if _, err := ns.Get(fmt.Sprintf("key-%02d", i)); err != nil {
			t.Fatalf("key-%02d lost in auto-scale: %v", i, err)
		}
	}
}

func TestQueueAutoScale(t *testing.T) {
	c := NewController(simclock.Real{}, nil, Config{BlockSize: 64, Latency: NoLatency, DefaultLease: -1})
	c.AddNode("n0", 8)
	ns, _ := c.CreateNamespace("/q", NamespaceOptions{})
	for i := 0; i < 10; i++ {
		must(t, ns.Enqueue(make([]byte, 40)))
	}
	if ns.Blocks() < 2 {
		t.Fatalf("queue did not grow blocks: %d", ns.Blocks())
	}
	if len(ns.fifo) != 10 {
		t.Fatalf("queue lost items: %d", len(ns.fifo))
	}
}

func TestValueTooBig(t *testing.T) {
	c := NewController(simclock.Real{}, nil, Config{BlockSize: 16, Latency: NoLatency, DefaultLease: -1})
	c.AddNode("n0", 2)
	ns, _ := c.CreateNamespace("/x", NamespaceOptions{})
	if err := ns.Put("k", make([]byte, 32)); !errors.Is(err, ErrValueTooBig) {
		t.Fatalf("err = %v", err)
	}
	if err := ns.Enqueue(make([]byte, 32)); !errors.Is(err, ErrValueTooBig) {
		t.Fatalf("err = %v", err)
	}
}

func TestScaleIsolation(t *testing.T) {
	// §4.4 insight (2): scaling namespace A must not move namespace B's keys.
	c := newCtrl(64)
	a, err := c.CreateNamespace("/a", NamespaceOptions{InitialBlocks: 4})
	must(t, err)
	b, err := c.CreateNamespace("/b", NamespaceOptions{InitialBlocks: 4})
	must(t, err)
	for i := 0; i < 100; i++ {
		must(t, a.Put(fmt.Sprintf("a%d", i), []byte("v")))
		must(t, b.Put(fmt.Sprintf("b%d", i), []byte("v")))
	}
	bPlacement := map[string]int{}
	for _, k := range b.Keys() {
		bPlacement[k] = b.BlockOf(k)
	}
	moved, err := a.Scale(+4)
	must(t, err)
	if moved == 0 || moved == 100 {
		t.Fatalf("moved = %d, want partial movement of A's keys", moved)
	}
	// B untouched: same placements, all keys readable.
	for k, blk := range bPlacement {
		if b.BlockOf(k) != blk {
			t.Fatalf("B's key %q moved when A scaled", k)
		}
	}
	if a.Blocks() != 8 {
		t.Fatalf("A blocks = %d", a.Blocks())
	}
	// Scale down.
	_, err = a.Scale(-6)
	must(t, err)
	if a.Blocks() != 2 {
		t.Fatalf("A blocks after scale-down = %d", a.Blocks())
	}
	for i := 0; i < 100; i++ {
		if _, err := a.Get(fmt.Sprintf("a%d", i)); err != nil {
			t.Fatalf("A key lost after scaling: %v", err)
		}
	}
	if _, err := a.Scale(-2); !errors.Is(err, ErrMinBlocks) {
		t.Fatalf("scale below 1 err = %v", err)
	}
}

func TestGlobalKVDisruptsAllTenants(t *testing.T) {
	g := NewGlobalKV(8)
	for i := 0; i < 200; i++ {
		g.Put("tenantA", fmt.Sprintf("a%d", i), []byte("v"))
		g.Put("tenantB", fmt.Sprintf("b%d", i), []byte("v"))
	}
	moved, err := g.Scale(+8)
	must(t, err)
	if moved["tenantA"] == 0 || moved["tenantB"] == 0 {
		t.Fatalf("global scaling should disrupt every tenant: %v", moved)
	}
	if len(g.blocks) != 16 {
		t.Fatalf("blocks = %d", len(g.blocks))
	}
	// Data intact: every key in the partition its hash names.
	for i := 0; i < 200; i++ {
		fk := globalKey("tenantA", fmt.Sprintf("a%d", i))
		if _, ok := g.blocks[int(hashKey(fk))%len(g.blocks)][fk]; !ok {
			t.Fatalf("%q lost by the rescale", fk)
		}
	}
	if _, err := g.Scale(-99); !errors.Is(err, ErrMinBlocks) {
		t.Fatalf("err = %v", err)
	}
}

func TestBlockSecondsMetering(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	m := billing.NewMeter()
	c := NewController(v, m, Config{Latency: NoLatency, Tenant: "acme"})
	c.AddNode("n0", 4)
	v.Run(func() {
		_, err := c.CreateNamespace("/job", NamespaceOptions{Lease: 5 * time.Second, InitialBlocks: 2})
		must(t, err)
		v.Sleep(10 * time.Second)
	})
	// Held exactly for the lease: the timer reclaims them the nanosecond
	// after the deadline, so 2 blocks × (5 s + 1 ns).
	if got, want := m.Units("acme", billing.ResJiffyBlockSecs), 2*(5*time.Second+1).Seconds(); got != want {
		t.Fatalf("block-seconds = %v, want %v", got, want)
	}
}

func TestAccessLatencyModelled(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	c := NewController(v, nil, Config{Latency: LatencyModel{PerOp: time.Millisecond}, DefaultLease: -1})
	c.AddNode("n0", 4)
	var elapsed time.Duration
	v.Run(func() {
		ns, err := c.CreateNamespace("/l", NamespaceOptions{})
		must(t, err)
		start := v.Now()
		must(t, ns.Put("k", []byte("v")))
		_, err = ns.Get("k")
		must(t, err)
		elapsed = v.Now().Sub(start)
	})
	if elapsed != 2*time.Millisecond {
		t.Fatalf("elapsed = %v, want 2ms", elapsed)
	}
}

func TestAllocationSpreadsAcrossNodes(t *testing.T) {
	c := NewController(simclock.Real{}, nil, Config{Latency: NoLatency, DefaultLease: -1})
	n0 := c.AddNode("n0", 4)
	n1 := c.AddNode("n1", 4)
	_, err := c.CreateNamespace("/s", NamespaceOptions{InitialBlocks: 4})
	must(t, err)
	if n0.Free() != 2 || n1.Free() != 2 {
		t.Fatalf("allocation skewed: n0 free %d, n1 free %d", n0.Free(), n1.Free())
	}
	if totalBlocks(c) != 8 || c.FreeBlocks() != 4 {
		t.Fatalf("totals wrong: %d/%d", c.FreeBlocks(), totalBlocks(c))
	}
}

// totalBlocks is the pool's block count, crashed nodes included.
func totalBlocks(c *Controller) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, n := range c.nodes {
		total += n.total
	}
	return total
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
