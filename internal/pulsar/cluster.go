package pulsar

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/billing"
	"repro/internal/coord"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// ClusterConfig parameterizes a cluster.
type ClusterConfig struct {
	// BatchMaxMessages is the default per-producer batch size for
	// SendAsync: messages buffered across all partitions before a flush,
	// one group-commit ledger append per partition the batch holds.
	// Default 1 — batching off; Send/SendKey are always synchronous
	// regardless.
	BatchMaxMessages int
	// BatchFlushInterval bounds how stale a producer's buffered message may
	// get: a SendAsync arriving BatchFlushInterval after the oldest buffered
	// message flushes the batch even if it is not full. (A producer has no
	// background timer — an idle tail batch stays buffered until Flush or
	// the next SendAsync.) Default 1ms.
	BatchFlushInterval time.Duration
	// ServiceTime models each broker as a FIFO server that spends this long
	// per message (publishers queue on the broker's virtual-time capacity
	// before the durable append). Zero — the default — disables the model:
	// publishes cost only their real compute. Soaks set it so aggregate
	// throughput is capacity-bound and broker scale-out is measurable on
	// the virtual clock.
	ServiceTime time.Duration
}

// Each topic ledger stripes over topicEnsemble bookies; an entry is written
// to topicWriteQuorum of them and acknowledged once topicAckQuorum have it.
// A topic's ledger rolls before an append would take it past
// topicLedgerEntries entries, and a sealed ledger is deleted once every
// subscription has acked past it, so a topic keeps about one ledger's worth
// of acked messages on the bookies. The size is a measured constant, not a
// knob: a topic's writer tells its ledgers (Writer.LedgerEntries), so each
// presizes its index to it — two 2048-record segments, which 4080 fills to
// within 16 records — and sizes the last chunk of its entry log to the
// entries it can still take. A roll and its delete are a few allocations
// per 4080 messages; the retained ledger is ≈1.1 MB of 256 B messages and
// its 32 KB index.
const (
	topicEnsemble      = 3
	topicWriteQuorum   = 2
	topicAckQuorum     = 2
	topicLedgerEntries = 4080
)

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.BatchMaxMessages < 1 {
		c.BatchMaxMessages = 1
	}
	if c.BatchFlushInterval <= 0 {
		c.BatchFlushInterval = time.Millisecond
	}
	return c
}

// Cluster is a Pulsar deployment: brokers plus the bookie ensemble and the
// coordination service of Figure 1.
type Cluster struct {
	clock   simclock.Clock
	meta    *coord.Store
	ledgers *ledger.System
	meter   *billing.Meter
	cfg     ClusterConfig

	mu           sync.Mutex
	brokers      map[string]*Broker
	brokerOrder  []string
	epochs       map[string]int64 // concrete topic → ownership epoch
	nextConsumer int64
	consumers    []*Consumer // every open consumer, woken by claim

	// owners caches resolved topic ownership so the publish/ack hot path is
	// one lock-free map probe instead of a coordination-service lock lookup
	// per call. Entries are invalidated error-driven: an operation on the
	// cached broker that fails with a stale owner (staleOwner: ErrBrokerDown,
	// ErrNoTopic, a fenced/closed ledger) drops the entry and re-resolves, in
	// withOwner or a consumer's attach pass. Staleness is safe, never silent:
	// a deposed broker either knows it lost the topic (ErrNoTopic) or its
	// zombie writer is fenced by the new owner's recovery (ErrFenced), so a
	// stale entry can only produce an error, not a lost ack or a divergent
	// ledger.
	owners sync.Map // concrete topic → ownerEntry

	// routes caches one stable routeHolder per logical topic; the holder's
	// table pointer is swapped atomically on a split, so producer routing
	// and consumer partition discovery are lock-free pointer loads with no
	// name formatting on the hot path. partParent maps each ranged concrete
	// partition back to its logical topic (load-manager split decisions).
	routes     sync.Map // logical topic → *routeHolder
	partParent sync.Map // concrete topic → logical topic

	// splitMu serializes partition splits (metadata read-modify-write).
	splitMu sync.Mutex

	// handoffDelay (atomic ns) stretches the unowned window inside
	// MoveTopic — a chaos hook so fault schedules can land inside a
	// handoff. Zero (default) makes the handoff atomic in virtual time.
	handoffDelay int64

	// Pre-resolved observability handles; nil (no-ops) until SetObs. The
	// registry itself is kept for per-subscription backlog gauges, which are
	// created lazily when subscriptions appear.
	obs              *obs.Registry
	tracer           *obs.Tracer
	obsPublished     *obs.Counter
	obsPublishLat    *obs.Histogram
	obsDispatchLat   *obs.Histogram
	obsRecoveries    *obs.Counter
	obsRecoveryTime  *obs.Histogram
	obsGeoReplicated *obs.Counter
	// obsDeadLettered counts messages a push consumer moved to a DLQ topic,
	// obsDeadLetterFailed those it could not (they stay unacked).
	obsDeadLettered     *obs.Counter
	obsDeadLetterFailed *obs.Counter
}

// SetObs attaches observability instruments. Call before traffic starts: the
// handles are read lock-free on the publish and dispatch paths.
func (c *Cluster) SetObs(r *obs.Registry) {
	c.obs = r
	c.tracer = r.Tracer()
	c.obsPublished = r.Counter("pulsar.publish.messages")
	c.obsPublishLat = r.Histogram("pulsar.publish.latency")
	c.obsDispatchLat = r.Histogram("pulsar.dispatch.latency")
	c.obsRecoveries = r.Counter("pulsar.recoveries")
	c.obsRecoveryTime = r.Histogram("pulsar.recovery.time")
	c.obsGeoReplicated = r.Counter("pulsar.georepl.replicated")
	c.obsDeadLettered = r.Counter("pulsar.dead_lettered")
	c.obsDeadLetterFailed = r.Counter("pulsar.dead_letter.failed")
}

// NewCluster creates a cluster. meter may be nil.
func NewCluster(clock simclock.Clock, meta *coord.Store, ledgers *ledger.System, meter *billing.Meter, cfg ClusterConfig) *Cluster {
	for _, p := range []string{"/pulsar", "/pulsar/topics", "/pulsar/subs", "/pulsar/owners"} {
		_ = meta.EnsurePath(p)
	}
	return &Cluster{
		clock:   clock,
		meta:    meta,
		ledgers: ledgers,
		meter:   meter,
		cfg:     cfg.withDefaults(),
		brokers: map[string]*Broker{},
		epochs:  map[string]int64{},
	}
}

// AddBroker registers and starts a broker.
func (c *Cluster) AddBroker(id string) *Broker {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := &Broker{
		ID:      id,
		cluster: c,
		session: c.meta.NewSession(),
		topics:  map[string]*topicState{},
		svcNs:   int64(c.cfg.ServiceTime),
	}
	if _, ok := c.brokers[id]; !ok {
		c.brokerOrder = append(c.brokerOrder, id)
	}
	c.brokers[id] = b
	return b
}

// Broker returns a broker by id.
func (c *Cluster) Broker(id string) (*Broker, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.brokers[id]
	return b, ok
}

// BrokerIDs returns broker ids in registration order (a stable target list
// for fault injection).
func (c *Cluster) BrokerIDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.brokerOrder...)
}

// CreateTopic declares a topic. partitions == 0 creates a plain topic;
// partitions > 0 creates that many partition topics addressed as one, each
// owning an equal contiguous slice of the key-hash space (so a hot
// partition can later split its range; see SplitPartition).
func (c *Cluster) CreateTopic(name string, partitions int) error {
	if name == "" || strings.ContainsAny(name, "/ ") {
		return fmt.Errorf("%w: %q", ErrBadTopicName, name)
	}
	meta := topicMeta{Partitions: partitions}
	if partitions > 0 {
		meta.Ranges = equalRanges(name, partitions)
		meta.NextPart = partitions
	}
	md, _ := json.Marshal(meta)
	if err := c.meta.Create("/pulsar/topics/"+name, md, coord.Persistent, 0); err != nil {
		if errors.Is(err, coord.ErrNodeExists) {
			return fmt.Errorf("%w: %q", ErrTopicExists, name)
		}
		return err
	}
	if partitions <= 0 {
		return c.meta.EnsurePath("/pulsar/subs/" + name)
	}
	for _, r := range meta.Ranges {
		pmd, _ := json.Marshal(topicMeta{Lo: r.Lo, Hi: r.Hi})
		if err := c.meta.Create("/pulsar/topics/"+r.Topic, pmd, coord.Persistent, 0); err != nil {
			return err
		}
		if err := c.meta.EnsurePath("/pulsar/subs/" + r.Topic); err != nil {
			return err
		}
	}
	return nil
}

// ownerEntry is a cached ownership resolution.
type ownerEntry struct {
	b  *Broker
	ep int64
}

// invalidateOwner drops a cached ownership resolution. Callers invoke it
// when an operation on the cached broker fails, before re-resolving.
func (c *Cluster) invalidateOwner(topic string) {
	c.owners.Delete(topic)
}

// dropOwnerEntries removes every cached resolution pointing at b (called on
// broker crash injection so the next publish re-elects immediately instead
// of burning a failed attempt).
func (c *Cluster) dropOwnerEntries(b *Broker) {
	c.owners.Range(func(k, v any) bool {
		if v.(ownerEntry).b == b {
			c.owners.Delete(k)
		}
		return true
	})
}

// ownerAttempts bounds withOwner: how many times one op may meet a stale
// owner before its last stale error is returned.
const ownerAttempts = 4

// staleOwner reports whether err is what a stale owner-cache entry produces:
// the cached broker was down or no longer owned the topic, or its writer lost
// the ledger to a new owner's recovery (fencing). See the owners field.
func staleOwner(err error) bool {
	return errors.Is(err, ErrBrokerDown) || errors.Is(err, ErrNoTopic) ||
		errors.Is(err, ledger.ErrFenced) || errors.Is(err, ledger.ErrWriterClosed)
}

// withOwner runs op against the broker owning the concrete topic. It is the
// one way a client op reaches a topic's owner: when op fails with a stale
// owner, the cached resolution is dropped and op runs again on a fresh one,
// up to ownerAttempts times in all. Any other error (an unknown
// subscription, ErrRouteMoved, a readback error) is returned at once and
// leaves the cache as it is.
func (c *Cluster) withOwner(topic string, op func(b *Broker) error) error {
	var err error
	for attempt := 0; attempt < ownerAttempts; attempt++ {
		var b *Broker
		if b, _, err = c.ensureOwner(topic); err != nil {
			return err
		}
		if err = op(b); !staleOwner(err) {
			return err
		}
		c.invalidateOwner(topic)
	}
	return err
}

// ensureOwner returns the broker owning the concrete topic, electing one
// (and running topic recovery on it) if the topic is unowned or its owner is
// down. It also returns the ownership epoch, which clients use to detect
// failovers. Resolutions are served from the owner cache when possible; see
// the owners field for why stale hits are safe.
func (c *Cluster) ensureOwner(topic string) (*Broker, int64, error) {
	if v, ok := c.owners.Load(topic); ok {
		e := v.(ownerEntry)
		if !e.b.Down() {
			return e.b, e.ep, nil
		}
		c.owners.Delete(topic)
	}
	return c.resolveOwner(topic)
}

// resolveOwner is the slow path: the coordination-service lookup/election,
// caching the result.
func (c *Cluster) resolveOwner(topic string) (*Broker, int64, error) {
	for attempt := 0; attempt < 8; attempt++ {
		if b, held := c.lockHolder(topic); held {
			if b != nil && !b.Down() {
				c.mu.Lock()
				ep := c.epochs[topic]
				c.mu.Unlock()
				c.owners.Store(topic, ownerEntry{b: b, ep: ep})
				return b, ep, nil
			}
			// Owner is gone or down: break the stale lock.
			c.meta.Release(ownerPath(topic))
		}
		cand := c.pickBroker(topic)
		if cand == nil {
			return nil, 0, ErrNoBroker
		}
		ep, ok, err := c.claim(topic, cand)
		if err != nil {
			return nil, 0, err
		}
		if ok {
			return cand, ep, nil
		}
		// Raced with another acquirer; retry lookup.
	}
	return nil, 0, fmt.Errorf("pulsar: ownership of %q could not be established", topic)
}

// ownerPath is the coordination-service lock node naming a concrete topic's
// owner.
func ownerPath(topic string) string { return "/pulsar/owners/" + topic }

// lockHolder reports whether the topic's ownership lock is held, and by which
// registered broker (nil if the holder's id names none).
func (c *Cluster) lockHolder(topic string) (b *Broker, held bool) {
	data, held := c.meta.LockHolder(ownerPath(topic))
	if held {
		b, _ = c.Broker(string(data))
	}
	return b, held
}

// claim makes b the topic's owner: it takes the ownership lock, loads the
// topic on b (releasing the lock if that fails), bumps the ownership epoch
// and caches the resolution. ok is false, with no error, when someone else
// holds the lock. Every ownership change (failover, MoveTopic, a split
// child's first owner) ends here, so claim wakes every consumer: each makes
// the attach pass that subscribes it on the new owner.
func (c *Cluster) claim(topic string, b *Broker) (ep int64, ok bool, err error) {
	if ok, err = c.meta.TryAcquire(ownerPath(topic), []byte(b.ID), b.session); !ok || err != nil {
		return 0, false, err
	}
	if err := b.loadTopic(topic); err != nil {
		c.meta.Release(ownerPath(topic))
		c.invalidateOwner(topic)
		return 0, false, err
	}
	c.mu.Lock()
	c.epochs[topic]++
	ep = c.epochs[topic]
	c.mu.Unlock()
	c.owners.Store(topic, ownerEntry{b: b, ep: ep})
	c.wakeConsumers()
	return ep, true, nil
}

// wakeConsumers has every open consumer make an attach pass. A wake takes no
// cluster, topic or consumer lock, so it is safe under c.mu.
func (c *Cluster) wakeConsumers() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cons := range c.consumers {
		cons.wake()
	}
}

// SetHandoffDelay stretches the unowned window inside MoveTopic by d — a
// chaos hook so seeded fault schedules can crash a broker mid-handoff.
// Zero restores atomic (in virtual time) handoffs.
func (c *Cluster) SetHandoffDelay(d time.Duration) {
	atomic.StoreInt64(&c.handoffDelay, int64(d))
}

// MoveTopic gracefully hands a concrete topic's ownership to broker toID:
// the current owner drops its in-memory state (persisting every
// subscription cursor and closing its writer), the ownership lock
// transfers, and the destination runs the same exact-cursor recovery as a
// failover takeover — so a move loses no message and redelivers no acked
// one. If the destination dies mid-handoff the topic is simply left
// unowned; the next publish or attach elects a surviving broker through
// resolveOwner, which replays the identical recovery path.
func (c *Cluster) MoveTopic(topic, toID string) error {
	to, ok := c.Broker(toID)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoBroker, toID)
	}
	if to.Down() {
		return fmt.Errorf("%w: %s", ErrBrokerDown, toID)
	}
	from, held := c.lockHolder(topic)
	if held && from == to {
		return nil // already there
	}
	if from != nil {
		// dropTopic write-locks the broker, waiting out in-flight publishes;
		// later arrivals get ErrNoTopic and re-resolve.
		from.dropTopic(topic)
	}
	c.invalidateOwner(topic)
	if held {
		c.meta.Release(ownerPath(topic))
	}
	if d := time.Duration(atomic.LoadInt64(&c.handoffDelay)); d > 0 {
		c.clock.Sleep(d) // no locks held: the chaos window
	}
	if to.Down() {
		return fmt.Errorf("%w: %s died mid-handoff", ErrBrokerDown, toID)
	}
	// Losing the claim race is not an error: whoever won owns the topic.
	_, _, err := c.claim(topic, to)
	return err
}

// pickBroker hashes the topic onto the live brokers for stable assignment.
func (c *Cluster) pickBroker(topic string) *Broker {
	c.mu.Lock()
	defer c.mu.Unlock()
	var live []*Broker
	for _, id := range c.brokerOrder {
		if b := c.brokers[id]; !b.Down() {
			live = append(live, b)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return live[int(fnv1a(topic))%len(live)]
}

// --- metadata helpers ---

// ledgersPath is the coordination-service node holding a topic's ledger list.
func ledgersPath(topic string) string { return "/pulsar/topics/" + topic + "/ledgers" }

// topicLedgers reads a topic's ledger list: nil for a topic that has never
// been loaded.
func (c *Cluster) topicLedgers(topic string) ([]ledgerRange, error) {
	raw, _, err := c.meta.Get(ledgersPath(topic))
	if errors.Is(err, coord.ErrNoNode) {
		if !c.meta.Exists("/pulsar/topics/" + topic) {
			return nil, fmt.Errorf("%w: %q", ErrNoTopic, topic)
		}
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeLedgers(raw)
}

// setTopicLedgers writes rs as the topic's ledger list, encoded into the
// topic's own buffer: on an existing node, one in-place store write and no
// allocation. Called with the topic's lock held, or before it is shared.
func (c *Cluster) setTopicLedgers(ts *topicState, rs []ledgerRange) error {
	ts.listBuf = appendLedgers(ts.listBuf[:0], rs)
	_, err := c.meta.Set(ts.listPath, ts.listBuf, coord.AnyVersion)
	if errors.Is(err, coord.ErrNoNode) {
		err = c.meta.Create(ts.listPath, ts.listBuf, coord.Persistent, 0)
	}
	return err
}

// cursorPath is the coordination-service node holding a subscription's
// durable cursor.
func cursorPath(topic, sub string) string { return "/pulsar/subs/" + topic + "/" + sub }

// topicSubscriptions reads every durable cursor of a concrete topic. A
// record that cannot be read or decoded is an error, not a missing
// subscription: coming up without it would restart its consumers from their
// initial position, redelivering or skipping the whole backlog.
func (c *Cluster) topicSubscriptions(topic string) (map[string]cursorRecord, error) {
	base := "/pulsar/subs/" + topic
	if !c.meta.Exists(base) {
		return nil, nil
	}
	names, err := c.meta.Children(base)
	if err != nil {
		return nil, err
	}
	out := map[string]cursorRecord{}
	for _, n := range names {
		path := cursorPath(topic, n)
		raw, _, err := c.meta.Get(path)
		if err != nil {
			return nil, fmt.Errorf("pulsar: read cursor: %w", err)
		}
		cur, err := decodeCursor(raw)
		if err != nil {
			return nil, fmt.Errorf("%w (node %s)", err, path)
		}
		out[n] = cur
	}
	return out, nil
}

// createCursor writes a new subscription's first cursor record. This is the
// one place a cursor node is created; acks only overwrite it.
func (c *Cluster) createCursor(sub *subscription) error {
	err := c.meta.EnsurePath("/pulsar/subs/" + sub.topicName)
	if err == nil {
		sub.cursorBuf = appendCursor(sub.cursorBuf[:0], cursorRecord{Mode: sub.mode, AckedPrefix: sub.ackedPrefix})
		err = c.meta.Create(sub.cursorPath, sub.cursorBuf, coord.Persistent, 0)
	}
	if errors.Is(err, coord.ErrNodeExists) {
		// A split wrote the child's cursor copies after this broker had
		// already loaded the child (an inspection such as Topics +
		// AckedMessages can elect it early). Nothing has acked against the
		// copy, so overwriting it loses nothing.
		return c.persistCursor(sub)
	}
	if err != nil {
		return fmt.Errorf("pulsar: create cursor: %w", err)
	}
	return nil
}

// persistCursor overwrites the subscription's cursor node with its full
// current state, encoded into the subscription's own buffer: one in-place
// store write, no allocation. Called with the topic's lock held.
func (c *Cluster) persistCursor(sub *subscription) error {
	sub.cursorBuf = appendCursor(sub.cursorBuf[:0], cursorRecord{Mode: sub.mode, AckedPrefix: sub.ackedPrefix, Acks: sub.acks})
	_, err := c.meta.Set(sub.cursorPath, sub.cursorBuf, coord.AnyVersion)
	sub.unsaved = err != nil
	if err != nil {
		return fmt.Errorf("pulsar: persist cursor: %w", err)
	}
	return nil
}

// meterPublish bills n publishes to the "pulsar" tenant.
func (c *Cluster) meterPublish(n int) {
	if c.meter != nil && n > 0 {
		c.meter.Add(billing.Record{Tenant: "pulsar", Resource: billing.ResMsgPublish, Units: float64(n)})
	}
}

// Backlog returns the unacked message count for a subscription on a plain
// topic, or the sum across partitions for a partitioned topic.
func (c *Cluster) Backlog(topic, subName string) (int64, error) {
	h, err := c.routing(topic)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range h.load().names {
		var n int64
		if err := c.withOwner(t, func(b *Broker) (err error) {
			n, err = b.backlog(t, subName)
			return err
		}); err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
