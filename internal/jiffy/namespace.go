package jiffy

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Path returns the namespace's full path.
func (ns *Namespace) Path() string { return ns.path }

// Blocks returns the namespace's current block count.
func (ns *Namespace) Blocks() int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return len(ns.blocks)
}

// UsedBytes returns the bytes stored in the namespace (KV plus queue).
func (ns *Namespace) UsedBytes() int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.usedLocked()
}

// Renew extends the namespace's lease by its TTL from now — the mechanism
// that decouples state lifetime from the producing task's lifetime (§4.4):
// any party with the path, producer or consumer, can keep the state alive.
func (ns *Namespace) Renew() error {
	c := ns.ctrl
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if ns.lapsed(now.UnixNano()) != nil {
		return fmt.Errorf("%w: %q", ErrLeaseExpired, ns.path)
	}
	if c.all[ns.path] != ns {
		return fmt.Errorf("%w: %q", ErrNoNamespace, ns.path)
	}
	if ns.lease > 0 {
		ns.armLocked(now)
	}
	return nil
}

// CreateChild creates a sub-namespace (e.g. a task's namespace under its
// application), inheriting nothing: it has its own blocks and lease.
func (ns *Namespace) CreateChild(name string, opts NamespaceOptions) (*Namespace, error) {
	if strings.ContainsAny(name, "/ ") || name == "" {
		return nil, fmt.Errorf("%w: child %q", ErrBadPath, name)
	}
	return ns.ctrl.CreateNamespace(ns.path+"/"+name, opts)
}

// lockLive enforces the lease and acquires the namespace's data lock: the
// shared prologue of every data-plane op, so that expired namespaces reject
// Put, Get, Delete and the queue ops uniformly. The happy path costs one
// atomic load of the deadline of the namespace and of each one above it —
// which rejects a namespace whose lease, or an ancestor's, has lapsed even
// before the expiry timer has run — plus the namespace lock. On success the
// caller holds ns.mu.
func (ns *Namespace) lockLive(now time.Time) error {
	if ns.lapsed(now.UnixNano()) != nil {
		return fmt.Errorf("%w: %q", ErrLeaseExpired, ns.path)
	}
	ns.mu.Lock()
	if ns.dead {
		// Reclaimed by an expiry timer that ran at a later instant than now:
		// lease expiry is the one way a namespace dies.
		ns.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrLeaseExpired, ns.path)
	}
	return nil
}

// lapsed returns the outermost of ns and the namespaces above it whose lease
// has lapsed by now (unix nanoseconds), or nil: a namespace lives only while
// every one above it does. parent is set once at create and kept through
// detach, so the walk takes no lock.
func (ns *Namespace) lapsed(now int64) *Namespace {
	var out *Namespace
	for a := ns; a != nil; a = a.parent {
		if now > a.deadline.Load() {
			out = a
		}
	}
	return out
}

// --- KV interface ---

// Put stores key→value in the namespace, auto-scaling by one block when the
// target block is full and pool capacity allows. Overwriting a key reuses
// the previous value's buffer when it has capacity (no allocation on
// steady-state overwrite): Get hands out copies, so no reader holds it.
func (ns *Namespace) Put(key string, value []byte) error {
	c := ns.ctrl
	var start time.Time
	if c.obsOpLat != nil {
		start = c.clock.Now()
		defer func() { c.obsOpLat.Observe(c.clock.Now().Sub(start)) }()
	}
	c.cfg.Latency.sleep(c.clock, len(value))
	if err := ns.lockLive(c.clock.Now()); err != nil {
		return err
	}
	defer ns.mu.Unlock()
	sz := len(key) + len(value)
	if sz > c.cfg.BlockSize {
		return fmt.Errorf("%w: %d > %d", ErrValueTooBig, sz, c.cfg.BlockSize)
	}
	for {
		b := ns.blocks[int(hashKey(key))%len(ns.blocks)]
		if b.lost {
			return fmt.Errorf("%w: partition of %q in %q lost", ErrNodeDown, key, ns.path)
		}
		old, existed := b.kv[key]
		if existed {
			b.used -= len(key) + len(old)
		}
		if b.used+sz <= c.cfg.BlockSize {
			if existed {
				b.kv[key] = append(old[:0], value...)
			} else {
				b.kv[key] = append([]byte(nil), value...)
			}
			b.used += sz
			ns.notifyLocked(Event{Type: EventPut, Path: ns.path, Key: key})
			return nil
		}
		if existed {
			b.used += len(key) + len(old) // undo; grow's rehash recounts
		}
		// Block full: grow the namespace by one block and retry.
		if err := ns.growLocked(); err != nil {
			return err
		}
	}
}

// growLocked adds one block, re-partitioning the namespace (ns.mu held; the
// controller lock is taken only for the allocation itself). Growth is
// refused while any partition is lost: the rehash would scatter live keys
// into unreadable blocks.
func (ns *Namespace) growLocked() error {
	if ns.lostBlocks > 0 {
		return fmt.Errorf("%w: %q has %d lost partitions", ErrNodeDown, ns.path, ns.lostBlocks)
	}
	b, err := ns.ctrl.allocBlock(ns.replicas)
	if err != nil {
		return err
	}
	oldCount := len(ns.blocks)
	ns.blocks = append(ns.blocks, b)
	ns.rehashLocked(oldCount)
	ns.notifyLocked(Event{Type: EventScaled, Path: ns.path})
	return nil
}

// Get returns a copy of the value for key.
func (ns *Namespace) Get(key string) ([]byte, error) {
	c := ns.ctrl
	var start time.Time
	if c.obsOpLat != nil {
		start = c.clock.Now()
		defer func() { c.obsOpLat.Observe(c.clock.Now().Sub(start)) }()
	}
	if err := ns.lockLive(c.clock.Now()); err != nil {
		return nil, err
	}
	b := ns.blocks[int(hashKey(key))%len(ns.blocks)]
	if b.lost {
		ns.mu.Unlock()
		return nil, fmt.Errorf("%w: partition of %q in %q lost", ErrNodeDown, key, ns.path)
	}
	v, ok := b.kv[key]
	var out []byte
	if ok {
		out = append([]byte(nil), v...)
	}
	ns.mu.Unlock()
	c.cfg.Latency.sleep(c.clock, len(out))
	if !ok {
		return nil, fmt.Errorf("%w: %q in %q", ErrNoKey, key, ns.path)
	}
	return out, nil
}

// Delete removes key. Like every data-plane op it enforces the lease: an
// expired namespace rejects deletes just as it rejects puts and gets.
func (ns *Namespace) Delete(key string) error {
	c := ns.ctrl
	c.cfg.Latency.sleep(c.clock, 0)
	if err := ns.lockLive(c.clock.Now()); err != nil {
		return err
	}
	defer ns.mu.Unlock()
	b := ns.blocks[int(hashKey(key))%len(ns.blocks)]
	if b.lost {
		return fmt.Errorf("%w: partition of %q in %q lost", ErrNodeDown, key, ns.path)
	}
	v, ok := b.kv[key]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoKey, key)
	}
	delete(b.kv, key)
	b.used -= len(key) + len(v)
	ns.notifyLocked(Event{Type: EventRemove, Path: ns.path, Key: key})
	return nil
}

// Keys returns every key in the namespace, sorted.
func (ns *Namespace) Keys() []string {
	ns.mu.Lock()
	var out []string
	for _, b := range ns.blocks {
		for k := range b.kv {
			out = append(out, k)
		}
	}
	ns.mu.Unlock()
	sort.Strings(out)
	return out
}

// BlockOf returns the index of the block holding key (for isolation tests).
func (ns *Namespace) BlockOf(key string) int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return int(hashKey(key)) % len(ns.blocks)
}

// Scale adds (delta > 0) or removes (delta < 0) blocks, re-partitioning
// *only this namespace's* keys across the new block set — the isolation
// property that the single global address-space baseline cannot provide
// (§4.4, experiment E5). It returns the number of keys that moved.
func (ns *Namespace) Scale(delta int) (moved int, err error) {
	c := ns.ctrl
	if err := ns.lockLive(c.clock.Now()); err != nil {
		return 0, err
	}
	defer ns.mu.Unlock()
	oldCount := len(ns.blocks)
	newCount := oldCount + delta
	if newCount < 1 {
		return 0, fmt.Errorf("%w: %d blocks requested", ErrMinBlocks, newCount)
	}
	if ns.lostBlocks > 0 {
		return 0, fmt.Errorf("%w: %q has %d lost partitions", ErrNodeDown, ns.path, ns.lostBlocks)
	}
	if delta > 0 {
		added, err := c.allocBlocks(delta, ns.replicas)
		if err != nil {
			return 0, err
		}
		ns.blocks = append(ns.blocks, added...)
	} else {
		// Preserve dropped blocks' data before returning them to the pool;
		// rehashLocked redistributes it properly below.
		keep := ns.blocks[0]
		for _, b := range ns.blocks[newCount:] {
			for k, v := range b.kv {
				keep.kv[k] = v
				keep.used += len(k) + len(v)
			}
		}
		c.freeBlocks(ns.blocks[newCount:])
		ns.blocks = ns.blocks[:newCount]
	}
	// Re-hash this namespace's KV entries into the new partition count. A
	// key "moves" when its partition index changes — the data that must
	// actually transfer between blocks during the resize.
	moved = ns.rehashLocked(oldCount)
	ns.notifyLocked(Event{Type: EventScaled, Path: ns.path})
	return moved, nil
}

// rehashLocked redistributes the namespace's KV pairs across its current
// block set, returning how many keys changed partition relative to oldCount
// partitions. Called with ns.mu held.
func (ns *Namespace) rehashLocked(oldCount int) int {
	type pair struct {
		k string
		v []byte
	}
	var pairs []pair
	for _, b := range ns.blocks {
		for k, v := range b.kv {
			pairs = append(pairs, pair{k, v})
		}
		clear(b.kv)
		b.used = 0
	}
	newCount := len(ns.blocks)
	moved := 0
	for _, p := range pairs {
		h := int(hashKey(p.k))
		t := ns.blocks[h%newCount]
		t.kv[p.k] = p.v
		t.used += len(p.k) + len(p.v)
		if h%newCount != h%oldCount {
			moved++
		}
	}
	return moved
}

// --- FIFO queue interface ---

// Enqueue appends an item to the namespace's FIFO (the shuffle/exchange
// primitive data-flow and ML workloads use for ephemeral state).
func (ns *Namespace) Enqueue(item []byte) error {
	c := ns.ctrl
	c.cfg.Latency.sleep(c.clock, len(item))
	if err := ns.lockLive(c.clock.Now()); err != nil {
		return err
	}
	defer ns.mu.Unlock()
	if len(ns.blocks) > 0 && ns.blocks[0].lost {
		return fmt.Errorf("%w: queue partition of %q lost", ErrNodeDown, ns.path)
	}
	if len(item) > c.cfg.BlockSize {
		return fmt.Errorf("%w: %d > %d", ErrValueTooBig, len(item), c.cfg.BlockSize)
	}
	// The queue's bytes count against the namespace's aggregate block
	// capacity; grow the namespace when the pool of blocks is exhausted.
	for ns.usedLocked()+len(item) > len(ns.blocks)*c.cfg.BlockSize {
		if err := ns.growLocked(); err != nil {
			return err
		}
	}
	ns.fifo = append(ns.fifo, append([]byte(nil), item...))
	ns.fifoUsed += len(item)
	ns.notifyLocked(Event{Type: EventPut, Path: ns.path})
	return nil
}

// usedLocked returns total resident bytes (ns.mu held).
func (ns *Namespace) usedLocked() int {
	n := ns.fifoUsed
	for _, b := range ns.blocks {
		n += b.used
	}
	return n
}

// Dequeue pops the oldest item, or ErrEmptyQueue.
func (ns *Namespace) Dequeue() ([]byte, error) {
	c := ns.ctrl
	if err := ns.lockLive(c.clock.Now()); err != nil {
		return nil, err
	}
	if len(ns.blocks) > 0 && ns.blocks[0].lost {
		ns.mu.Unlock()
		return nil, fmt.Errorf("%w: queue partition of %q lost", ErrNodeDown, ns.path)
	}
	if len(ns.fifo) == 0 {
		ns.mu.Unlock()
		c.cfg.Latency.sleep(c.clock, 0)
		return nil, fmt.Errorf("%w: %q", ErrEmptyQueue, ns.path)
	}
	item := ns.fifo[0]
	ns.fifo[0] = nil
	ns.fifo = ns.fifo[1:]
	ns.fifoUsed -= len(item)
	ns.notifyLocked(Event{Type: EventRemove, Path: ns.path})
	ns.mu.Unlock()
	c.cfg.Latency.sleep(c.clock, len(item))
	return item, nil
}

func (ns *Namespace) notifyLocked(ev Event) {
	for _, fn := range ns.subs {
		fn(ev)
	}
}

func (l LatencyModel) sleep(clock interface{ Sleep(time.Duration) }, n int) {
	clock.Sleep(l.Cost(n))
}
