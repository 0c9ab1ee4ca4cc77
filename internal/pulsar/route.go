package pulsar

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/coord"
)

// The key-hash space partitioned topics route over. Each concrete partition
// owns a half-open range [lo, hi) of fnv1a key hashes; splitting a hot
// partition halves its range. hi == 0 on a topic's metadata means the topic
// is unranged (a plain topic): brokers accept any key.
const hashSpace = uint64(1) << 32

// topicMeta is the durable metadata under /pulsar/topics/<name>.
//
// For a logical partitioned topic it carries the routing ranges (in
// partition creation order — parents always precede the children split off
// them) and the next partition ordinal. For a concrete partition it carries
// that partition's own [Lo, Hi) key range, which the owning broker enforces
// (see publishEntries). Plain topics keep the original {"partitions":0} shape,
// so pre-range metadata still decodes.
type topicMeta struct {
	Partitions int         `json:"partitions"`
	NextPart   int         `json:"next_part,omitempty"`
	Ranges     []rangeMeta `json:"ranges,omitempty"`
	Lo         uint64      `json:"lo,omitempty"`
	Hi         uint64      `json:"hi,omitempty"`
}

// rangeMeta is one concrete partition's slice of the key-hash space.
type rangeMeta struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Topic string `json:"topic"`
}

// partRange is the in-memory routing entry for one concrete partition.
type partRange struct {
	lo, hi uint64
	topic  string
}

// routeTable is an immutable snapshot of a logical topic's routing state.
// Producers and consumers read it lock-free through a routeHolder; a split
// publishes a fresh table, so every lookup after the swap sees the new
// layout without any per-send coordination lookup or name formatting —
// concrete topic names are interned here once per table build.
type routeTable struct {
	version int64
	// names lists concrete topics in creation order (parents before the
	// children split off them). Consumers attach in this order, which is
	// what makes per-key order survive a split: a key's pre-split backlog
	// on the parent is always pushed to the consumer's queue before its
	// post-split stream on the child (the queue is bounded, so a partition
	// is first attached only once those before it have placed everything:
	// Consumer.ensureAttached). Unkeyed round-robin also spreads over names.
	names []string
	// parts is sorted by lo for binary-search routing; empty for plain
	// topics.
	parts []partRange
}

// lookup routes a key hash to its concrete topic. The table always covers
// the full hash space, so the search cannot miss.
func (t *routeTable) lookup(h uint64) string {
	i := sort.Search(len(t.parts), func(i int) bool { return t.parts[i].hi > h })
	return t.parts[i].topic
}

// routeHolder is the stable per-logical-topic handle producers and
// consumers keep: the holder never changes, the table it points at is
// swapped atomically on a split.
type routeHolder struct {
	p atomic.Pointer[routeTable]
}

func (h *routeHolder) load() *routeTable { return h.p.Load() }

// routing returns the (cached) routing holder for a logical topic, building
// the first table from coordination-service metadata.
func (c *Cluster) routing(topic string) (*routeHolder, error) {
	if v, ok := c.routes.Load(topic); ok {
		return v.(*routeHolder), nil
	}
	tbl, err := c.loadRouteTable(topic)
	if err != nil {
		return nil, err
	}
	h := &routeHolder{}
	h.p.Store(tbl)
	actual, _ := c.routes.LoadOrStore(topic, h)
	hold := actual.(*routeHolder)
	c.registerParents(topic, tbl)
	return hold, nil
}

// registerParents records concrete partition → logical topic so the load
// manager can resolve a hot concrete partition back to its splittable
// parent.
func (c *Cluster) registerParents(topic string, tbl *routeTable) {
	for _, p := range tbl.parts {
		c.partParent.Store(p.topic, topic)
	}
}

func (c *Cluster) getTopicMeta(name string) (topicMeta, error) {
	raw, _, err := c.meta.Get("/pulsar/topics/" + name)
	if err != nil {
		return topicMeta{}, fmt.Errorf("%w: %q", ErrNoTopic, name)
	}
	var md topicMeta
	if err := json.Unmarshal(raw, &md); err != nil {
		return topicMeta{}, err
	}
	return md, nil
}

func (c *Cluster) setTopicMeta(name string, md topicMeta) error {
	raw, _ := json.Marshal(md)
	_, err := c.meta.Set("/pulsar/topics/"+name, raw, coord.AnyVersion)
	return err
}

// loadRouteTable builds a routing table from durable metadata.
func (c *Cluster) loadRouteTable(topic string) (*routeTable, error) {
	md, err := c.getTopicMeta(topic)
	if err != nil {
		return nil, err
	}
	return buildRouteTable(topic, md), nil
}

func buildRouteTable(topic string, md topicMeta) *routeTable {
	tbl := &routeTable{version: 1}
	if md.Partitions <= 0 {
		tbl.names = []string{topic}
		return tbl
	}
	ranges := md.Ranges
	if len(ranges) == 0 {
		// Pre-range metadata (partitions declared, no ranges recorded):
		// synthesize the equal split CreateTopic would have written.
		ranges = equalRanges(topic, md.Partitions)
	}
	tbl.names = make([]string, len(ranges))
	tbl.parts = make([]partRange, len(ranges))
	for i, r := range ranges {
		tbl.names[i] = r.Topic
		tbl.parts[i] = partRange{lo: r.Lo, hi: r.Hi, topic: r.Topic}
	}
	sort.Slice(tbl.parts, func(i, j int) bool { return tbl.parts[i].lo < tbl.parts[j].lo })
	return tbl
}

// equalRanges carves the hash space into n contiguous equal partitions.
func equalRanges(topic string, n int) []rangeMeta {
	out := make([]rangeMeta, n)
	width := hashSpace / uint64(n)
	for i := range out {
		lo := uint64(i) * width
		hi := lo + width
		if i == n-1 {
			hi = hashSpace
		}
		out[i] = rangeMeta{Lo: lo, Hi: hi, Topic: fmt.Sprintf("%s-partition-%d", topic, i)}
	}
	return out
}

// ErrCannotSplit reports a split request on a partition whose range is
// already a single hash value, or on a plain (unranged) topic.
var ErrCannotSplit = errors.New("pulsar: partition cannot split further")

// SplitPartition halves a hot concrete partition's key range: a new
// concrete topic takes over the upper half, the parent keeps the lower
// half, and the logical topic's routing table is republished. target names
// the broker that should own the new partition ("" leaves ownership to the
// next publisher's election). Split order matters for the per-key-order
// invariant:
//
//  1. The child's metadata, subscription cursors (copied from the parent at
//     position 0) and coordination paths are created first, so any election
//     on the child finds complete durable state.
//  2. The child is placed on the target broker while it is still unroutable:
//     its election (ledger writer, cursor recovery) happens off the publish
//     path, so the first re-routed send finds a warm owner instead of paying
//     the election inside its latency.
//  3. The routing table is swapped before the parent's live range narrows:
//     from the swap on, new sends route upper-half keys to the child; until
//     the narrow, in-flight sends that routed with the old table still land
//     on the parent — all strictly before any child append for those keys.
//  4. The parent's live range narrows (ErrRouteMoved fencing), after which
//     the parent can never again accept an upper-half key, so the child's
//     stream is a clean suffix of each moved key's history.
func (c *Cluster) SplitPartition(logical, concrete, target string) (string, error) {
	c.splitMu.Lock()
	defer c.splitMu.Unlock()

	md, err := c.getTopicMeta(logical)
	if err != nil {
		return "", err
	}
	if md.Partitions <= 0 {
		return "", fmt.Errorf("%w: %q is not partitioned", ErrCannotSplit, logical)
	}
	if len(md.Ranges) == 0 {
		md.Ranges = equalRanges(logical, md.Partitions)
		md.NextPart = md.Partitions
	}
	idx := -1
	for i, r := range md.Ranges {
		if r.Topic == concrete {
			idx = i
			break
		}
	}
	if idx < 0 {
		return "", fmt.Errorf("%w: %q has no partition %q", ErrNoTopic, logical, concrete)
	}
	lo, hi := md.Ranges[idx].Lo, md.Ranges[idx].Hi
	if hi-lo < 2 {
		return "", fmt.Errorf("%w: %q range [%d,%d)", ErrCannotSplit, concrete, lo, hi)
	}
	mid := lo + (hi-lo)/2
	child := fmt.Sprintf("%s-partition-%d", logical, md.NextPart)

	// 1. Durable child state: metadata node, subs path, and a copy of every
	// parent subscription cursor at position 0 so durable subscriptions see
	// the child's stream from its first message regardless of when (or
	// whether) a consumer is attached at split time.
	childMD, _ := json.Marshal(topicMeta{Lo: mid, Hi: hi})
	if err := c.meta.Create("/pulsar/topics/"+child, childMD, coord.Persistent, 0); err != nil {
		return "", err
	}
	if err := c.meta.EnsurePath("/pulsar/subs/" + child); err != nil {
		return "", err
	}
	parentSubs, err := c.topicSubscriptions(concrete)
	if err != nil {
		return "", err
	}
	for name, cur := range parentSubs {
		raw := appendCursor(nil, cursorRecord{Mode: cur.Mode})
		if err := c.meta.Create(cursorPath(child, name), raw, coord.Persistent, 0); err != nil && !errors.Is(err, coord.ErrNodeExists) {
			return "", err
		}
	}
	if err := c.setTopicMeta(concrete, topicMeta{Lo: lo, Hi: mid}); err != nil {
		return "", err
	}
	md.Ranges[idx].Hi = mid
	md.Ranges = append(md.Ranges, rangeMeta{Lo: mid, Hi: hi, Topic: child})
	md.Partitions = len(md.Ranges)
	md.NextPart++
	if err := c.setTopicMeta(logical, md); err != nil {
		return "", err
	}

	// 2. Place the child while nothing routes to it yet. A failed placement
	// leaves it unowned; the first publish or attach elects an owner the
	// usual way.
	if target != "" {
		if b, ok := c.Broker(target); ok && !b.Down() {
			_, _, _ = c.claim(child, b)
		}
	}

	// 3. Publish the new routing table (append-only names order).
	v, ok := c.routes.Load(logical)
	var h *routeHolder
	if ok {
		h = v.(*routeHolder)
	} else {
		h = &routeHolder{}
		h.p.Store(buildRouteTable(logical, md))
		if actual, loaded := c.routes.LoadOrStore(logical, h); loaded {
			h = actual.(*routeHolder)
		}
	}
	tbl := buildRouteTable(logical, md)
	tbl.version = h.load().version + 1
	h.p.Store(tbl)
	c.registerParents(logical, tbl)
	// The child's claim in step 2 woke the consumers before this table
	// existed; the attach pass that finds the child needs it.
	c.wakeConsumers()

	// 4. Narrow the live parent's accepted range: from here the parent
	// fences upper-half keys with ErrRouteMoved.
	if v, ok := c.owners.Load(concrete); ok {
		v.(ownerEntry).b.narrowRange(concrete, lo, mid)
	} else if b, _ := c.lockHolder(concrete); b != nil {
		b.narrowRange(concrete, lo, mid)
	}
	return child, nil
}
