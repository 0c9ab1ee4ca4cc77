// Package jiffy implements the paper's §4.4 ephemeral-state store
// (Figure 2): a virtual memory layer for serverless applications built on
// the paper's three insights — (1) multiplex a shared pool of memory across
// applications at block granularity, (2) break the single global
// address-space so that scaling one application's memory re-partitions only
// that application's data (isolation), and (3) borrow operating-system
// virtual-memory ideas: hierarchical namespaces as address spaces,
// block-granularity allocation as paging, lease-based lifetime management,
// and per-namespace notifications to signal consumers that state is ready.
//
// A Controller manages memory nodes contributing fixed-size blocks to a
// shared pool. Namespaces form a tree (e.g. /tenant/app/task); each
// namespace owns blocks and exposes a key-value and a FIFO-queue data
// interface over them. The GlobalKV type in global.go is the
// single-global-address-space baseline that experiment E5 compares against.
//
// Concurrency model (DESIGN.md §6): the paper's isolation insight extends to
// the control plane — one tenant's traffic must not serialize another's. The
// data plane (KV blocks, FIFO queue, subscribers) is guarded per-namespace
// by Namespace.mu; Controller.mu guards only the shared structures: the
// namespace tree and the node registry and block free-lists. Lease expiry is
// a clock event off the hot path: a leased namespace holds one
// simclock.Timer, armed just past its deadline and re-armed by Renew, whose
// callback reclaims the namespace and its subtree. A data op's only lease
// cost is one atomic load of the deadline of its namespace and of each one
// above it, which keeps every answer independent of when a real-clock timer
// gets to run.
package jiffy

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/billing"
	"repro/internal/errs"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// Errors returned by the store. ErrNoCapacity and ErrLeaseExpired wrap the
// platform-wide identities in internal/errs so errors.Is matches across
// planes; ErrLeaseExpired additionally wraps ErrNoNamespace, preserving the
// historical contract that every op on a reclaimed namespace matches
// ErrNoNamespace.
var (
	ErrNoNamespace = errors.New("jiffy: namespace does not exist")
	ErrNsExists    = errors.New("jiffy: namespace already exists")
	ErrNoCapacity  = fmt.Errorf("jiffy: shared memory pool exhausted (%w)", errs.ErrNoCapacity)
	// ErrLeaseExpired marks an op rejected because the namespace's lease
	// lapsed and its state was (or is being) reclaimed.
	ErrLeaseExpired = fmt.Errorf("jiffy: namespace %w: %w", errs.ErrLeaseExpired, ErrNoNamespace)
	ErrNoKey        = errors.New("jiffy: key not found")
	ErrEmptyQueue   = errors.New("jiffy: queue is empty")
	ErrBadPath      = errors.New("jiffy: malformed namespace path")
	ErrValueTooBig  = errors.New("jiffy: value exceeds block size")
	ErrHasChildren  = errors.New("jiffy: namespace has children")
	ErrMinBlocks    = errors.New("jiffy: cannot scale below one block")
	ErrNodeDown     = errors.New("jiffy: memory node is down")
	ErrNoNode       = errors.New("jiffy: memory node does not exist")
	ErrNoFlush      = errors.New("jiffy: no flush target configured")
)

// noExpiry is the deadline of a namespace whose lease never lapses.
const noExpiry = math.MaxInt64

// LatencyModel is the modelled access cost of the store. Defaults reflect
// memory-speed ephemeral storage: sub-millisecond operations, orders of
// magnitude below blob-store latency — the §4.4 performance gap experiment
// E4 measures.
type LatencyModel struct {
	PerOp   time.Duration
	PerByte time.Duration
}

// Cost returns the modelled duration of an operation moving n bytes.
func (l LatencyModel) Cost(n int) time.Duration {
	return l.PerOp + time.Duration(n)*l.PerByte
}

// MemoryLatency is the default Jiffy access model (~200µs per op, ~1 GB/s).
var MemoryLatency = LatencyModel{PerOp: 200 * time.Microsecond, PerByte: time.Nanosecond}

// NoLatency disables modelled access latency (a zero-valued LatencyModel in
// Config means "use the default"; NoLatency means "really zero" — the
// negative PerOp makes Cost non-positive, which Sleep ignores).
var NoLatency = LatencyModel{PerOp: -1}

// EventType labels namespace notifications.
type EventType int

const (
	// EventPut fires on a KV put or queue enqueue.
	EventPut EventType = iota
	// EventRemove fires on a KV delete or queue dequeue.
	EventRemove
	// EventExpired fires when a namespace's lease lapses and its state is
	// reclaimed.
	EventExpired
	// EventScaled fires when a namespace gains or loses blocks.
	EventScaled
)

// Event is delivered to namespace subscribers.
type Event struct {
	Type EventType
	Path string
	Key  string // the affected key, when applicable
}

// Config parameterizes a Controller.
type Config struct {
	// BlockSize is the capacity of one memory block in bytes. Default 64 KiB.
	BlockSize int
	// DefaultLease is the namespace lease TTL when CreateNamespace gets
	// none. Default 30s (short-lived, like the serverless tasks it serves).
	DefaultLease time.Duration
	// Latency is the modelled access cost. Default MemoryLatency.
	Latency LatencyModel
}

func (c Config) withDefaults() Config {
	if c.BlockSize == 0 {
		c.BlockSize = 64 << 10
	}
	if c.DefaultLease == 0 {
		c.DefaultLease = 30 * time.Second
	}
	if c.Latency == (LatencyModel{}) {
		c.Latency = MemoryLatency
	}
	return c
}

// block is one fixed-size memory unit. Its storage is resident on one or
// more memory nodes (the namespace's replica count); a block belongs to
// exactly one namespace at a time and serves as one hash partition of that
// namespace's key-value data. A block whose every replica node crashed is
// marked lost: its data is gone until the namespace rematerializes from the
// flush tier, and data ops against it degrade to ErrNodeDown.
type block struct {
	nodes []*MemoryNode // replica set; empty only transiently or when lost
	lost  bool
	kv    map[string][]byte
	used  int       // bytes of KV data resident in this block
	since time.Time // allocation time, for block-seconds metering
}

// MemoryNode is one server contributing blocks to the shared pool.
type MemoryNode struct {
	ID    string
	total int
	inUse int
	// free holds this node's recycled blocks (Controller.mu): allocation
	// reuses a retired block's map storage instead of re-making it.
	free []*block
	// down is the fail-stop flag. Data ops never consult it (block data
	// survives in the shared maps); allocation and capacity accounting do.
	down atomic.Bool
}

// Free returns the node's unallocated block count (zero while down).
func (n *MemoryNode) Free() int {
	if n.down.Load() {
		return 0
	}
	return n.total - n.inUse
}

// Namespace is one node of the hierarchical namespace tree, owning blocks
// and exposing KV and queue interfaces over them.
type Namespace struct {
	ctrl   *Controller
	path   string
	parent *Namespace
	// children is part of the namespace tree, guarded by ctrl.mu.
	children map[string]*Namespace

	lease         time.Duration // immutable after create
	flushOnExpiry bool          // immutable after create
	replicas      int           // replica nodes per block; immutable after create
	// deadline is the lease expiry instant in unix nanoseconds (noExpiry
	// when the lease never lapses). Data ops load it lock-free; Renew and
	// the controller store it under ctrl.mu.
	deadline atomic.Int64
	// expiry fires one nanosecond past deadline (a namespace is live at its
	// exact deadline) and runs expire; nil when the lease never lapses.
	// Reset only under ctrl.mu.
	expiry *simclock.Timer

	// mu guards the namespace's data plane: everything below. Taking it
	// does not serialize other namespaces — the §4.4 isolation property.
	// Lock order: a goroutine may take ctrl.mu while holding mu (block
	// allocation during grow/scale), never the reverse.
	mu   sync.Mutex
	dead bool // set on removal/expiry; rejects all further data ops

	lostBlocks int      // block groups whose every replica crashed
	blocks     []*block // KV hash partitions; they also back the FIFO's capacity
	// fifo is the namespace's FIFO queue. It is namespace-scoped (ordering
	// must span partitions); its bytes count against the aggregate
	// capacity of the namespace's blocks.
	fifo     [][]byte
	fifoUsed int
	subs     []func(Event)
}

// Controller is Jiffy's control plane: node registry, block allocator,
// namespace tree, leases and notifications.
type Controller struct {
	clock simclock.Clock
	meter *billing.Meter
	cfg   Config

	mu    sync.Mutex
	nodes []*MemoryNode
	root  map[string]*Namespace // top-level namespaces by first path part
	all   map[string]*Namespace
	flush FlushTarget
	// tearing counts expired subtrees detached from the tree whose blocks
	// finish has not yet returned to the pool; torn (L = &mu) is signalled
	// when it falls to zero.
	tearing int
	torn    sync.Cond

	// Pre-resolved observability handles; nil (no-ops) until SetObs.
	obsAlloc        *obs.Counter
	obsFree         *obs.Counter
	obsLeaseExp     *obs.Counter
	obsInUse        *obs.Gauge
	obsOccupancy    *obs.Histogram
	obsOpLat        *obs.Histogram
	obsNodesDown    *obs.Gauge
	obsRecoveries   *obs.Counter
	obsBlocksLost   *obs.Counter
	obsRecoveryTime *obs.Histogram
	tracer          *obs.Tracer
}

// SetObs attaches observability instruments. Call before traffic starts.
func (c *Controller) SetObs(r *obs.Registry) {
	c.tracer = r.Tracer()
	c.obsAlloc = r.Counter("jiffy.block.alloc")
	c.obsFree = r.Counter("jiffy.block.free")
	c.obsLeaseExp = r.Counter("jiffy.lease.expired")
	c.obsInUse = r.Gauge("jiffy.blocks.inuse")
	c.obsOccupancy = r.ValueHistogram("jiffy.block.occupancy")
	c.obsOpLat = r.Histogram("jiffy.op.latency")
	c.obsNodesDown = r.Gauge("jiffy.nodes.down")
	c.obsRecoveries = r.Counter("jiffy.recoveries")
	c.obsBlocksLost = r.Counter("jiffy.blocks.lost")
	c.obsRecoveryTime = r.Histogram("jiffy.recovery.time")
}

// NewController creates an empty controller. meter may be nil.
func NewController(clock simclock.Clock, meter *billing.Meter, cfg Config) *Controller {
	c := &Controller{
		clock: clock,
		meter: meter,
		cfg:   cfg.withDefaults(),
		root:  map[string]*Namespace{},
		all:   map[string]*Namespace{},
	}
	c.torn.L = &c.mu
	return c
}

// AddNode contributes a memory node with the given number of blocks to the
// shared pool.
func (c *Controller) AddNode(id string, blocks int) *MemoryNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := &MemoryNode{ID: id, total: blocks}
	c.nodes = append(c.nodes, n)
	return n
}

// FreeBlocks returns the pool's unallocated block count.
func (c *Controller) FreeBlocks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	free := 0
	for _, n := range c.nodes {
		free += n.Free()
	}
	return free
}

// NamespaceOptions parameterize CreateNamespace.
type NamespaceOptions struct {
	// Lease is the TTL; zero uses the controller default. A negative
	// lease never expires.
	Lease time.Duration
	// InitialBlocks sizes the namespace's first allocation. Default 1.
	InitialBlocks int
	// FlushOnExpiry persists the namespace's KV data to the controller's
	// flush target (SetFlushTarget) when the lease lapses, instead of
	// discarding it.
	FlushOnExpiry bool
	// Replicas is the number of distinct memory nodes each of the
	// namespace's blocks is resident on. Default 1 (unreplicated): a node
	// crash loses the blocks it held. With Replicas ≥ 2 a crash degrades
	// nothing — surviving replicas keep serving and the controller restores
	// the replica count on live nodes.
	Replicas int
}

// CreateNamespace makes a namespace at path (parents must exist, except for
// top-level paths) and allocates its initial blocks from the shared pool. A
// namespace at path or above it whose lease has lapsed is reclaimed first,
// whether or not its timer has run yet.
func (c *Controller) CreateNamespace(path string, opts NamespaceOptions) (*Namespace, error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	parentPath := ""
	if len(parts) > 1 {
		parentPath = "/" + strings.Join(parts[:len(parts)-1], "/")
	}
	if opts.InitialBlocks <= 0 {
		opts.InitialBlocks = 1
	}
	lease := opts.Lease
	if lease == 0 {
		lease = c.cfg.DefaultLease
	}

	now := c.clock.Now()
	c.mu.Lock()
	near := c.all[path]
	if near == nil && parentPath != "" {
		near = c.all[parentPath]
	}
	if old := near.lapsed(now.UnixNano()); old != nil {
		c.mu.Unlock()
		old.expire() // its timer has not run yet
		c.mu.Lock()
	}
	for c.tearing > 0 { // an expiry's teardown is returning blocks
		c.torn.Wait()
	}
	defer c.mu.Unlock()
	if _, ok := c.all[path]; ok {
		return nil, fmt.Errorf("%w: %q", ErrNsExists, path)
	}
	var parent *Namespace
	if parentPath != "" {
		parent = c.all[parentPath]
		if parent == nil {
			return nil, fmt.Errorf("%w: parent of %q", ErrNoNamespace, path)
		}
	}
	replicas := opts.Replicas
	if replicas < 1 {
		replicas = 1
	}
	ns := &Namespace{
		ctrl:          c,
		path:          path,
		parent:        parent,
		children:      map[string]*Namespace{},
		lease:         lease,
		flushOnExpiry: opts.FlushOnExpiry,
		replicas:      replicas,
	}
	ns.deadline.Store(noExpiry)
	for i := 0; i < opts.InitialBlocks; i++ {
		b, err := c.allocBlockLocked(replicas)
		if err != nil {
			c.freeBlocksLocked(ns.blocks)
			return nil, err
		}
		ns.blocks = append(ns.blocks, b)
	}
	if parent != nil {
		parent.children[parts[len(parts)-1]] = ns
	} else {
		c.root[parts[0]] = ns
	}
	c.all[path] = ns
	if lease > 0 {
		ns.expiry = simclock.NewTimer(c.clock, ns.expire)
		ns.armLocked(now)
	}
	return ns, nil
}

// Namespace returns an existing namespace by path.
func (c *Controller) Namespace(path string) (*Namespace, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns, ok := c.all[path]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoNamespace, path)
	}
	return ns, nil
}

// Subscribe registers a notification handler on a namespace. Handlers run
// synchronously on the mutating goroutine.
func (c *Controller) Subscribe(path string, fn func(Event)) error {
	c.mu.Lock()
	ns, ok := c.all[path]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoNamespace, path)
	}
	ns.mu.Lock()
	ns.subs = append(ns.subs, fn)
	ns.mu.Unlock()
	return nil
}

// --- lease expiry ---

// armLocked sets the lease deadline to now plus the TTL and arms the expiry
// timer one nanosecond past it (c.mu held).
func (ns *Namespace) armLocked(now time.Time) {
	at := now.Add(ns.lease)
	ns.deadline.Store(at.UnixNano())
	ns.expiry.Reset(at.Add(1))
}

// expire is the expiry timer's callback, and CreateNamespace's over a lapsed
// holder: it reclaims the namespace and its subtree, unless a Renew moved
// the deadline or the namespace is already gone (reclaimed with an ancestor,
// or by a CreateNamespace over it).
func (ns *Namespace) expire() {
	c := ns.ctrl
	now := c.clock.Now().UnixNano()
	c.mu.Lock()
	if c.all[ns.path] != ns || now <= ns.deadline.Load() {
		c.mu.Unlock()
		return
	}
	c.obsLeaseExp.Inc()
	c.tearing++
	var victims []*Namespace
	c.detachLocked(ns, &victims)
	target := c.flush
	c.mu.Unlock()
	c.finish(victims, target)
}

// detachLocked unlinks a namespace subtree from the tree (c.mu held),
// appending each namespace to out child-first. Data teardown happens later
// in finish, outside c.mu, so in-flight data ops on *other* namespaces never
// wait on a removal.
func (c *Controller) detachLocked(ns *Namespace, out *[]*Namespace) {
	names := make([]string, 0, len(ns.children))
	for name := range ns.children {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c.detachLocked(ns.children[name], out)
	}
	delete(c.all, ns.path)
	if ns.parent != nil {
		for name, ch := range ns.parent.children {
			if ch == ns {
				delete(ns.parent.children, name)
			}
		}
	} else {
		parts, _ := splitPath(ns.path)
		delete(c.root, parts[0])
	}
	*out = append(*out, ns)
}

// finish completes an expiry after the tree detach: marks each namespace
// dead under its own lock, captures flush data, frees the blocks back to
// their nodes, and only then fires EventExpired notifications, so a
// subscriber finds the pool whole and CreateNamespace does not wait on it.
// victims arrive child-first. Lock order: ns.mu then c.mu, never nested the
// other way.
func (c *Controller) finish(victims []*Namespace, target FlushTarget) {
	var toFree []*block
	var flushFns []func()
	subs := make([][]func(Event), len(victims))
	for i, ns := range victims {
		ns.mu.Lock()
		ns.dead = true
		blocks := ns.blocks
		ns.blocks = nil
		ns.fifo, ns.fifoUsed = nil, 0
		if fn := flushFn(target, ns, blocks); fn != nil {
			flushFns = append(flushFns, fn)
		}
		subs[i] = ns.subs
		ns.mu.Unlock()
		toFree = append(toFree, blocks...)
	}
	c.mu.Lock()
	c.freeBlocksLocked(toFree)
	c.tearing--
	if c.tearing == 0 {
		c.torn.Broadcast()
	}
	c.mu.Unlock()
	for i, ns := range victims {
		for _, fn := range subs[i] {
			fn(Event{Type: EventExpired, Path: ns.path})
		}
	}
	for _, fn := range flushFns {
		c.clock.Go(fn)
	}
}

// --- allocation internals ---

// allocBlock allocates one block, taking c.mu. Called from data ops that
// hold their namespace's lock (grow/scale).
func (c *Controller) allocBlock(replicas int) (*block, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.allocBlockLocked(replicas)
}

// allocBlocks allocates n blocks atomically (all or none) under one c.mu
// acquisition.
func (c *Controller) allocBlocks(n, replicas int) ([]*block, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	added := make([]*block, 0, n)
	for i := 0; i < n; i++ {
		b, err := c.allocBlockLocked(replicas)
		if err != nil {
			c.freeBlocksLocked(added)
			return nil, err
		}
		added = append(added, b)
	}
	return added, nil
}

// freeBlocks returns blocks to the pool, taking c.mu.
func (c *Controller) freeBlocks(blocks []*block) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.freeBlocksLocked(blocks)
}

// allocBlockLocked carves one block group out of the pool: replicas slots
// on distinct live nodes, most-free first (spreading load across the pool),
// reusing a recycled block from the primary node's free-list when one exists
// — allocation is then pointer moves, not a map re-make.
func (c *Controller) allocBlockLocked(replicas int) (*block, error) {
	if replicas < 1 {
		replicas = 1
	}
	chosen := make([]*MemoryNode, 0, replicas)
	for len(chosen) < replicas {
		var best *MemoryNode
		for _, n := range c.nodes {
			if n.Free() <= 0 || containsNode(chosen, n) {
				continue
			}
			if best == nil || n.Free() > best.Free() {
				best = n
			}
		}
		if best == nil {
			for _, n := range chosen {
				n.inUse-- // roll back partial placement
			}
			return nil, ErrNoCapacity
		}
		best.inUse++
		chosen = append(chosen, best)
	}
	c.obsAlloc.Add(int64(replicas))
	c.obsInUse.Add(float64(replicas))
	primary := chosen[0]
	if n := len(primary.free); n > 0 {
		b := primary.free[n-1]
		primary.free[n-1] = nil
		primary.free = primary.free[:n-1]
		b.nodes = chosen
		b.since = c.clock.Now()
		return b, nil
	}
	return &block{nodes: chosen, kv: map[string][]byte{}, since: c.clock.Now()}, nil
}

func containsNode(nodes []*MemoryNode, n *MemoryNode) bool {
	for _, m := range nodes {
		if m == n {
			return true
		}
	}
	return false
}

func (c *Controller) freeBlocksLocked(blocks []*block) {
	now := c.clock.Now()
	slots := 0
	for _, b := range blocks {
		slots += len(b.nodes)
	}
	if slots > 0 {
		c.obsFree.Add(int64(slots))
		c.obsInUse.Add(-float64(slots))
	}
	for _, b := range blocks {
		var home *MemoryNode
		for _, n := range b.nodes {
			if n.down.Load() {
				continue // the crash already reset this node's accounting
			}
			n.inUse--
			if home == nil {
				home = n
			}
		}
		c.obsOccupancy.ObserveValue(int64(b.used))
		if c.meter != nil && len(b.nodes) > 0 {
			held := now.Sub(b.since).Seconds()
			c.meter.Add(billing.Record{
				Tenant:   "jiffy",
				Resource: billing.ResJiffyBlockSecs,
				Units:    held * float64(len(b.nodes)),
			})
		}
		clear(b.kv)
		b.used = 0
		b.lost = false
		b.nodes = nil
		if home != nil {
			home.free = append(home.free, b)
		}
	}
}

func splitPath(path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") || path == "/" {
		return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	parts := strings.Split(strings.Trim(path, "/"), "/")
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
		}
	}
	if path != "/"+strings.Join(parts, "/") {
		return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	return parts, nil
}

func hashKey(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32()
}
