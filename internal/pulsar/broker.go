package pulsar

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/ledger"
	"repro/internal/obs"
)

// Errors returned by the messaging layer.
var (
	ErrNoTopic        = errors.New("pulsar: topic does not exist")
	ErrTopicExists    = errors.New("pulsar: topic already exists")
	ErrBrokerDown     = errors.New("pulsar: broker is down")
	ErrExclusiveTaken = errors.New("pulsar: exclusive subscription already has a consumer")
	ErrNoBroker       = errors.New("pulsar: no live broker available")
	ErrBadTopicName   = errors.New("pulsar: invalid topic name")
	ErrConsumerClosed = errors.New("pulsar: consumer is closed")
	ErrPublishDropped = errors.New("pulsar: publish dropped")
)

// consumerReg is a consumer's registration on a broker-side subscription:
// one per Consumer, shared by every partition it is attached to. starved is
// set by a broker whose push found the queue full and cleared by the consumer
// when it asks for the stopped rounds to be run again (ensureAttached). A
// broker calls wake after placing a message in the queue.
type consumerReg struct {
	id      int64
	inbox   *inbox
	starved atomic.Bool
	wake    func()
}

// subscription is the broker-side durable cursor plus attached consumers.
type subscription struct {
	topicName string
	name      string
	mode      SubMode

	ackedPrefix  int64         // every seq < ackedPrefix is acked
	acks         []int64       // out-of-order acks beyond the prefix, ascending
	pending      pendingWindow // delivered unacked: seq → consumer id, over [ackedPrefix, nextDispatch)
	redeliver    []int64       // seqs queued for redelivery
	nextDispatch int64         // next fresh seq to dispatch
	consumers    []*consumerReg
	rr           int // round-robin pointer for Shared
	// dropAcks makes the next N acks vanish in flight: the consumer's Ack
	// returns success but the cursor does not move, so the message is still
	// unacked broker-side — the lost-ack fault behind duplicate delivery
	// (see Cluster.DropAcks / RedeliverUnacked).
	dropAcks int

	// The durable cursor lives in the coordination-service node at
	// cursorPath, which subscribe creates (or loadTopic finds); every ack
	// re-encodes the full record into cursorBuf and overwrites the node.
	// unsaved is set while the node is behind the in-memory cursor because a
	// write failed, so that a retried ack writes again instead of returning
	// early below the prefix.
	cursorPath string
	cursorBuf  []byte
	unsaved    bool

	// backlogGauge tracks this subscription's unacked message count. Resolved
	// once at subscription creation; nil (no-op) when observability is off.
	backlogGauge *obs.Gauge
}

// newSubscription builds a subscription resuming from the cursor record cur
// (nothing delivered yet, nothing queued), its backlog gauge resolved.
func (c *Cluster) newSubscription(topicName, name string, cur cursorRecord) *subscription {
	return &subscription{
		topicName:    topicName,
		name:         name,
		mode:         cur.Mode,
		ackedPrefix:  cur.AckedPrefix,
		acks:         cur.Acks,
		pending:      pendingWindow{base: cur.AckedPrefix, end: cur.AckedPrefix},
		nextDispatch: cur.AckedPrefix,
		cursorPath:   cursorPath(topicName, name),
		backlogGauge: c.obs.Gauge("pulsar.backlog." + topicName + "." + name),
	}
}

// updateBacklogLocked refreshes the subscription's backlog gauge. Called with
// the topic's lock held; a single atomic store when observability is on.
func (sub *subscription) updateBacklogLocked(ts *topicState) {
	sub.backlogGauge.Set(float64(ts.win.end - sub.ackedPrefix - int64(len(sub.acks))))
}

// acked reports whether seq has been acked.
func (sub *subscription) acked(seq int64) bool {
	if seq < sub.ackedPrefix {
		return true
	}
	_, found := slices.BinarySearch(sub.acks, seq)
	return found
}

// markAcked records an ack at or beyond the prefix (a repeat changes
// nothing) and advances the prefix over every ack that has become
// contiguous with it. The head is removed by copying down, so the backing
// array is kept and a steady stream of acks allocates nothing.
func (sub *subscription) markAcked(seq int64) {
	if i, found := slices.BinarySearch(sub.acks, seq); !found {
		sub.acks = slices.Insert(sub.acks, i, seq)
	}
	n := 0
	for n < len(sub.acks) && sub.acks[n] == sub.ackedPrefix {
		sub.ackedPrefix++
		n++
	}
	sub.acks = slices.Delete(sub.acks, 0, n)
}

// topicState is a broker's in-memory state for a topic it owns. Each topic
// carries its own lock, so publishes and dispatches on distinct topics never
// contend: Broker.mu only guards the topic table itself.
type topicState struct {
	// pubMsgs/pubBytes count publishes since this broker loaded the topic.
	// Atomics (though written under ts.mu) so the load manager samples
	// them without touching the topic lock. First for 64-bit alignment.
	pubMsgs  int64
	pubBytes int64

	name string

	mu     sync.Mutex
	writer *ledger.Writer
	// ranges are the retained ledgers, ascending StartSeq: ranges[0].StartSeq
	// is the oldest seq the topic still holds, and the last range is the
	// writer's, still open. The same list, encoded into listBuf, is the
	// node at listPath.
	ranges   []ledgerRange
	listPath string
	listBuf  []byte
	win      msgWindow // the unacked tail; win.end is the topic's next seq
	enc      []byte    // where a publish encodes its entries for the ledger to copy
	subs     map[string]*subscription
}

// first is the oldest seq the topic retains: where an Earliest subscription
// starts, and below which nothing can be read back.
func (ts *topicState) first() int64 { return ts.ranges[0].StartSeq }

// retain adds a just-appended message to the window, first letting go of
// what every subscription has acked if the ring would otherwise grow. With
// nobody subscribed nothing is kept: a subscription that joins later starts
// at end, or reads the ledgers.
func (ts *topicState) retain(m Message) {
	if ts.win.full() {
		floor := ts.win.end
		for _, sub := range ts.subs {
			floor = min(floor, sub.ackedPrefix)
		}
		ts.win.trim(floor)
	}
	ts.win.append(m)
}

// readRange is the one ledger read-back: it calls fn, in seq order, for
// every message in [from, to) as the topic's ledgers hold it, taking one
// reader per ledger touched: from open (System.OpenReader, or loadTopic's
// just-recovered readers) for a closed ledger, from the writer for the
// current one. A seq is a position — ledger i's entry e is seq StartSeq+e —
// which the current ledger is checked for before it is read. A from below
// the oldest retained seq is an error: those ledgers are deleted. The walk
// ends, with no error, when fn returns false; nothing past that message is
// read. The pointer is good for the call only. Called with the topic's lock
// held, or — by loadTopic — before the topic is shared.
func (ts *topicState) readRange(open func(int64) (*ledger.Reader, error), from, to int64, fn func(*Message) bool) error {
	if from < to && from < ts.first() {
		return fmt.Errorf("pulsar: topic %q retains seqs from %d, not %d", ts.name, ts.first(), from)
	}
	var m Message // fn's argument escapes: one heap slot a call, not one a message
	for i, rg := range ts.ranges {
		end := to
		if i+1 < len(ts.ranges) {
			end = min(to, ts.ranges[i+1].StartSeq)
		}
		seq := max(from, rg.StartSeq)
		if seq >= end {
			continue
		}
		var r *ledger.Reader
		if ts.writer != nil && rg.ID == ts.writer.ID() {
			r = ts.writer.Reader() // the current ledger is never closed while owned
			if n := rg.StartSeq + r.LastEntry() + 1; n != ts.win.end {
				return fmt.Errorf("pulsar: topic %q ends at seq %d, its ledger %d at %d", ts.name, ts.win.end, rg.ID, n)
			}
		} else {
			var err error
			if r, err = open(rg.ID); err != nil {
				return err
			}
		}
		for ; seq < end; seq++ {
			e, err := r.Read(seq - rg.StartSeq)
			if err != nil {
				return err
			}
			if m, err = decodeMessage(e, ts.name); err != nil {
				return err
			}
			m.Seq = seq // the entry's position is its seq
			if !fn(&m) {
				return nil
			}
		}
	}
	return nil
}

// each calls fn, in seq order, for every message in [from, to), to <=
// win.end, until fn returns false: read back from the ledgers below the
// window, then out of it. The pointer is good for the call only.
func (ts *topicState) each(sys *ledger.System, from, to int64, fn func(*Message) bool) error {
	more := true
	if from < ts.win.base {
		below := min(to, ts.win.base)
		if err := ts.readRange(sys.OpenReader, from, below, func(m *Message) bool {
			more = fn(m)
			return more
		}); err != nil {
			return err
		}
		from = below
	}
	for ; more && from < to; from++ {
		more = fn(ts.win.at(from))
	}
	return nil
}

// Broker is the stateless message-serving component of Figure 1: it
// receives, stores (via the ledger layer) and dispatches messages for the
// topics whose ownership it holds in the coordination service.
//
// Locking: Broker.mu (an RWMutex) protects the topic table and the down
// flag; per-topic state is under topicState.mu. Data-plane operations take
// Broker.mu read-locked for their duration plus the one topic's lock, so
// traffic on different topics proceeds concurrently while SetDown/loadTopic
// (write-lockers) still see a quiescent broker.
type Broker struct {
	ID      string
	cluster *Cluster
	session coord.SessionID

	mu     sync.RWMutex
	topics map[string]*topicState
	down   bool

	// Chaos hooks: slow adds latency to every publish; dropNext fails the
	// next N publishes before the durable append (so nothing is ever acked
	// and then lost). Both atomics — no lock on the hot path.
	slow     int64
	dropNext int64

	// Capacity model (ClusterConfig.ServiceTime): svcNs is the per-message
	// service time, busyUntil the virtual-time instant the broker's FIFO
	// server frees up. Publishers CAS-reserve their service window and
	// sleep until it ends — before any lock, so a queued publisher never
	// stalls the virtual clock or other topics. Zero svcNs disables both.
	svcNs     int64
	busyUntil int64
}

// admitService reserves n messages of modeled service capacity and waits
// (in virtual time) until the reservation completes. FIFO by reservation
// order: the broker serves one message per ServiceTime, so saturated
// throughput is 1/ServiceTime per broker and adding brokers adds capacity.
func (b *Broker) admitService(n int) {
	svc := atomic.LoadInt64(&b.svcNs)
	if svc <= 0 || n <= 0 {
		return
	}
	cost := svc * int64(n)
	now := b.cluster.clock.Now().UnixNano()
	for {
		cur := atomic.LoadInt64(&b.busyUntil)
		start := cur
		if start < now {
			start = now
		}
		end := start + cost
		if atomic.CompareAndSwapInt64(&b.busyUntil, cur, end) {
			if wait := end - now; wait > 0 {
				b.cluster.clock.Sleep(time.Duration(wait))
			}
			return
		}
	}
}

// SetSlow makes every subsequent publish on this broker take an extra d
// (a straggler broker). Zero clears it.
func (b *Broker) SetSlow(d time.Duration) { atomic.StoreInt64(&b.slow, int64(d)) }

func (b *Broker) extraLatency() time.Duration { return time.Duration(atomic.LoadInt64(&b.slow)) }

// DropNext makes the broker reject the next n publishes (before anything is
// appended durably) with ErrPublishDropped — a lossy-network injection.
func (b *Broker) DropNext(n int) { atomic.StoreInt64(&b.dropNext, int64(n)) }

func (b *Broker) takeDrop() bool {
	for {
		n := atomic.LoadInt64(&b.dropNext)
		if n <= 0 {
			return false
		}
		if atomic.CompareAndSwapInt64(&b.dropNext, n, n-1) {
			return true
		}
	}
}

// SetDown injects or clears a broker crash. Going down releases all topic
// ownership (the coordination session closes, deleting ephemeral owner
// nodes), so surviving brokers can take the topics over, and wakes every
// consumer: its attach pass claims the topics on a live broker, which
// redelivers what the dead one had handed out unacked.
func (b *Broker) SetDown(down bool) {
	b.mu.Lock()
	b.down = down
	b.topics = map[string]*topicState{}
	b.mu.Unlock()
	// Either direction invalidates cached ownership: a crashed broker must
	// not be resolved again, and a revived one no longer holds the topics
	// the cache remembers it owning.
	b.cluster.dropOwnerEntries(b)
	if down {
		b.cluster.meta.CloseSession(b.session)
		b.cluster.wakeConsumers()
	} else {
		b.session = b.cluster.meta.NewSession()
	}
}

// Down reports whether the broker is crashed.
func (b *Broker) Down() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.down
}

// topic looks up a live topic's state. Called with b.mu held (read or
// write).
func (b *Broker) topicLocked(topicName string) (*topicState, error) {
	if b.down {
		return nil, fmt.Errorf("%w: %s", ErrBrokerDown, b.ID)
	}
	ts, ok := b.topics[topicName]
	if !ok {
		return nil, fmt.Errorf("%w: %q not owned by %s", ErrNoTopic, topicName, b.ID)
	}
	return ts, nil
}

// subLocked looks up a live topic's subscription, returning with the topic's
// lock held when it finds one. Called with b.mu held (read or write).
func (b *Broker) subLocked(topicName, subName string) (*topicState, *subscription, error) {
	ts, err := b.topicLocked(topicName)
	if err != nil {
		return nil, nil, err
	}
	ts.mu.Lock()
	sub, ok := ts.subs[subName]
	if !ok {
		ts.mu.Unlock()
		return nil, nil, fmt.Errorf("pulsar: unknown subscription %s/%s", topicName, subName)
	}
	return ts, sub, nil
}

// publishEntries is the one commit from producer to bookie: it encodes each
// message into its entry and appends them as one ledger group commit, then
// dispatches. A synchronous send is a group of one. Returns the first
// assigned seq; all messages share one PublishTime.
//
// payloads are read once, by the encode under the topic lock, and not kept:
// the entries are encoded with the publish time into the topic's scratch
// (ts.enc), and the durable append copies each into bytes the current ledger
// owns and sets entries[i], which the caller supplies as scratch, to message
// i's copy. From there an entry travels uncopied: the bookie replicas share
// it, the topic's window holds its payload view until every subscription has
// acked past it, and consumers receive that same view. The ledger copies
// every attempt afresh, so a retry never touches an entry a failed append may
// have left on a bookie.
//
// traces[i] is message i's publish-side causal context (zero = untraced):
// the group commit parents on the first traced message, and every delivery
// on its own message's context.
func (b *Broker) publishEntries(topicName string, keys []string, payloads [][]byte, traces []obs.TraceCtx, entries [][]byte) (int64, error) {
	if d := b.extraLatency(); d > 0 {
		b.cluster.clock.Sleep(d) // before any lock: sleeping under a lock stalls the virtual clock
	}
	// Fail fast before reserving capacity: a publish the broker will reject
	// anyway (a topic it does not own) must not queue behind real work.
	if err := b.precheck(topicName); err != nil {
		return 0, err
	}
	b.admitService(len(payloads))
	if b.takeDrop() {
		return 0, fmt.Errorf("%w: %s", ErrPublishDropped, b.ID)
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	ts, err := b.topicLocked(topicName)
	if err != nil {
		return 0, err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if open := ts.win.end - ts.ranges[len(ts.ranges)-1].StartSeq; open > 0 && open+int64(len(payloads)) > topicLedgerEntries {
		if err := b.rollLocked(ts); err != nil {
			return 0, err
		}
	}
	now := b.cluster.clock.Now()
	first := ts.win.end
	pos := first - ts.ranges[len(ts.ranges)-1].StartSeq
	ts.encode(keys, payloads, entries, now)
	var batchCtx obs.TraceCtx
	for _, tc := range traces {
		if tc.Valid() {
			batchCtx = tc
			break
		}
	}
	_, err = ts.writer.AppendBatchCtx(entries, batchCtx)
	if err != nil {
		// Entries commit in order and the ones ahead of the failure stay
		// committed (Writer.AppendBatch). They hold the ledger's next
		// positions, so they are the topic's next seqs whatever the producer
		// is told: publish that prefix, or every later seq would name one
		// message in the window and another on the ledger. A producer that
		// sends the batch again duplicates the prefix, as at-least-once allows.
		n := ts.writer.Reader().LastEntry() + 1 - pos
		if n == 0 {
			return 0, err
		}
		entries = entries[:n]
	}
	var nbytes int64
	for i, e := range entries {
		v := e[len(e)-len(payloads[i]):] // the payload view: an entry ends with its payload
		ts.retain(Message{Seq: first + int64(i), Key: keys[i], Payload: v, PublishTime: now, Topic: ts.name, Trace: traces[i]})
		nbytes += int64(len(v))
	}
	atomic.AddInt64(&ts.pubMsgs, int64(len(entries)))
	atomic.AddInt64(&ts.pubBytes, nbytes)
	c := b.cluster
	c.obsPublished.Add(int64(len(entries)))
	if c.obsPublishLat != nil {
		c.obsPublishLat.Observe(c.clock.Now().Sub(now))
	}
	b.dispatchAllLocked(ts)
	return first, err
}

// maxScratch is the most encoded bytes a topic keeps for its next publish:
// a few hundred typical entries, far above a full batch of them.
const maxScratch = 64 << 10

// encode sets entries[i] to message i's entry, published at now, encoded
// into the topic's scratch, which the next publish reuses: the ledger's
// append copies each entry out of it. A batch larger than maxScratch
// encodes into bytes that go with it. Called with the topic's lock held.
func (ts *topicState) encode(keys []string, payloads [][]byte, entries [][]byte, now time.Time) {
	n := 0
	for i, p := range payloads {
		n += entrySize(keys[i], len(p))
	}
	buf := ts.enc[:cap(ts.enc)]
	if n > len(buf) {
		buf = make([]byte, n)
		if n <= maxScratch {
			ts.enc = buf
		}
	}
	for i, p := range payloads {
		size := entrySize(keys[i], len(p))
		entries[i], buf = buf[:size:size], buf[size:]
		encodeEntryInto(entries[i], keys[i], p, now)
	}
}

// rollLocked moves the topic's writer to a fresh ledger, which a batch can
// then fill without straddling two, names it in the topic's ledger list
// before anything is appended to it, and deletes what every subscription has
// acked past. Called with the topic's lock held; nothing here sleeps.
func (b *Broker) rollLocked(ts *topicState) error {
	if err := ts.writer.Roll(); err != nil {
		return err
	}
	ts.ranges = append(ts.ranges, ledgerRange{ID: ts.writer.ID(), StartSeq: ts.win.end})
	return b.retireLocked(ts, true)
}

// retireLocked deletes the sealed ledgers that lie wholly below the topic's
// floor: the lowest seq any subscription may still need, which is its acked
// prefix or the lowest seq in its redelivery queue, whichever is lower. A
// topic with no subscription deletes nothing, and neither does one whose
// cursor write is pending (sub.unsaved): a failover would restart it from
// the durable cursor, behind the in-memory one. The ledger list is written
// first, so the coordination service never names a deleted ledger; save
// writes it even when nothing is deleted (after a roll). Called with the
// topic's lock held.
func (b *Broker) retireLocked(ts *topicState, save bool) error {
	n := 0
	if len(ts.subs) > 0 {
		floor := ts.win.end
		for _, sub := range ts.subs {
			if sub.unsaved {
				floor = ts.first()
				break
			}
			floor = min(floor, sub.ackedPrefix)
			for _, seq := range sub.redeliver {
				floor = min(floor, seq)
			}
		}
		for n+1 < len(ts.ranges) && ts.ranges[n+1].StartSeq <= floor {
			n++
		}
	}
	if n == 0 && !save {
		return nil
	}
	c := b.cluster
	if err := c.setTopicLedgers(ts, ts.ranges[n:]); err != nil {
		return err
	}
	for _, rg := range ts.ranges[:n] {
		_ = c.ledgers.DeleteLedger(rg.ID) // unnamed now: a leftover is only garbage
	}
	ts.ranges = ts.ranges[:copy(ts.ranges, ts.ranges[n:])]
	return nil
}

// dispatchAllLocked runs a dispatch round for every subscription of a topic
// that has just taken a publish. The publish is durable whatever happens
// here, so a failed read-back is counted, not returned: the subscription's
// next round resumes where this one stopped.
func (b *Broker) dispatchAllLocked(ts *topicState) {
	for _, sub := range ts.subs {
		if b.dispatchLocked(ts, sub) != nil {
			b.cluster.obs.Counter("pulsar.readback.errors").Inc()
		}
		sub.updateBacklogLocked(ts)
	}
}

// precheck is the advisory pre-admission gate: it mirrors the ownership check
// the publish body performs authoritatively under locks, but runs before
// admitService so rejected work never consumes capacity.
func (b *Broker) precheck(topicName string) error {
	b.mu.RLock()
	_, err := b.topicLocked(topicName)
	b.mu.RUnlock()
	return err
}

// dropTopic releases a topic's in-memory state for a graceful handoff:
// cursors are persisted (belt and braces — every ack already persists, so a
// failed write here loses nothing an Ack reported durable) and the writer
// closed so the ledger tail is sealed for the next owner's
// recovery. Publishers in flight finish first (write lock); later arrivals
// get ErrNoTopic and re-resolve ownership.
func (b *Broker) dropTopic(topicName string) {
	b.mu.Lock()
	ts, ok := b.topics[topicName]
	if ok {
		delete(b.topics, topicName)
	}
	b.mu.Unlock()
	if !ok {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, sub := range ts.subs {
		_ = b.cluster.persistCursor(sub)
	}
	if ts.writer != nil {
		ts.writer.Close()
	}
}

// topicLoadSample is one owned topic's cumulative publish counters.
type topicLoadSample struct {
	Topic string
	Msgs  int64
	Bytes int64
}

// snapshotLoad samples every owned topic's publish counters, sorted by
// topic name for deterministic load-manager decisions.
func (b *Broker) snapshotLoad() (samples []topicLoadSample, down bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.down {
		return nil, true
	}
	samples = make([]topicLoadSample, 0, len(b.topics))
	for name, ts := range b.topics {
		samples = append(samples, topicLoadSample{
			Topic: name,
			Msgs:  atomic.LoadInt64(&ts.pubMsgs),
			Bytes: atomic.LoadInt64(&ts.pubBytes),
		})
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].Topic < samples[j].Topic })
	return samples, false
}

// subscribe creates the durable subscription if needed and attaches the
// consumer, triggering backlog dispatch: as much of the backlog as the
// consumer's queue has room for. Attaching a consumer that is attached already
// changes nothing and runs a dispatch round, which is how a consumer whose
// queue had filled asks for the rest (Pulsar's Flow). A new subscription
// exists only once its cursor node does: if the coordination service refuses
// the node, the error is returned and nothing is registered. If the backlog
// lies below the window and cannot be read back, the error is returned with
// the consumer attached and holding what was read: attaching it again resumes
// the backlog (Consumer.Receive does, every poll); closing it queues that for
// redelivery.
func (b *Broker) subscribe(topicName, subName string, mode SubMode, pos InitialPosition, reg *consumerReg) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ts, err := b.topicLocked(topicName)
	if err != nil {
		return err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	sub, ok := ts.subs[subName]
	if !ok {
		start := ts.first()
		if pos == Latest {
			start = ts.win.end
		}
		sub = b.cluster.newSubscription(topicName, subName, cursorRecord{Mode: mode, AckedPrefix: start})
		if err := b.cluster.createCursor(sub); err != nil {
			return err
		}
		ts.subs[subName] = sub
		sub.updateBacklogLocked(ts)
	}
	if !slices.ContainsFunc(sub.consumers, func(c *consumerReg) bool { return c.id == reg.id }) {
		if sub.mode == Exclusive && len(sub.consumers) > 0 {
			return fmt.Errorf("%w: %s/%s", ErrExclusiveTaken, topicName, subName)
		}
		sub.consumers = append(sub.consumers, reg)
	}
	return b.dispatchLocked(ts, sub)
}

// detach removes a consumer; its pending messages are queued for redelivery.
func (b *Broker) detach(topicName, subName string, consumerID int64) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ts, sub, err := b.subLocked(topicName, subName)
	if err != nil {
		return
	}
	defer ts.mu.Unlock()
	sub.consumers = slices.DeleteFunc(sub.consumers, func(c *consumerReg) bool { return c.id == consumerID })
	sub.rr = 0
	sub.redeliver = sub.pending.drain(consumerID, sub.redeliver)
	if b.dispatchLocked(ts, sub) != nil {
		b.cluster.obs.Counter("pulsar.readback.errors").Inc() // the queue is kept for the next round
	}
}

// ack marks a message consumed and writes the durable cursor: it returns nil
// only once the full cursor record — prefix and every out-of-order ack — is
// in the coordination service. If that write fails the error is returned and
// the in-memory cursor is not rolled back: each record is the subscription's
// whole state, so the next ack that reaches the store (a retry of this one
// included) makes this ack durable too.
func (b *Broker) ack(topicName, subName string, seq int64) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ts, sub, err := b.subLocked(topicName, subName)
	if err != nil {
		return err
	}
	defer ts.mu.Unlock()
	if seq < sub.ackedPrefix {
		if sub.unsaved {
			return b.cluster.persistCursor(sub)
		}
		return nil
	}
	if sub.dropAcks > 0 {
		// The ack is lost in flight: report success to the consumer, change
		// nothing durable. The message stays pending and will be redelivered
		// by RedeliverUnacked or a failover — at-least-once, made injectable.
		sub.dropAcks--
		return nil
	}
	sub.pending.clear(seq)
	sub.markAcked(seq)
	sub.pending.advance(sub.ackedPrefix)
	sub.updateBacklogLocked(ts)
	// Persist on every ack, not just prefix advances: out-of-order acks
	// beyond the prefix must survive a broker failover, or the new owner
	// would redeliver already-acked messages.
	if err := b.cluster.persistCursor(sub); err != nil {
		return err
	}
	// A prefix past the oldest ledger's end may have freed it. The ack is
	// durable either way: a list write that fails here leaves the ledger for
	// the next roll or crossing to delete.
	if len(ts.ranges) > 1 && sub.ackedPrefix >= ts.ranges[1].StartSeq {
		_ = b.retireLocked(ts, false)
	}
	return nil
}

// dispatchLocked delivers redeliveries and fresh messages to consumers per
// the subscription mode. Called with the topic's lock held.
//
// Whatever lies below the window — a new Earliest subscription's start, a
// queued redelivery the acked prefix has since passed — is read back from the
// ledgers. The round ends at the first message that cannot be placed, because
// that read failed (the error is returned) or because no consumer that may
// take it has room in its queue (counted, not an error), with the cursor and
// the redelivery queue at exactly what was delivered. Undelivered messages
// stay where they are with no consumer attached, in [nextDispatch, win.end),
// and the next round (an attach, a publish, a redelivery request, a consumer
// with room again) resumes from there, so nothing is skipped and nothing
// delivered twice; one round reads back at most a queue's worth.
func (b *Broker) dispatchLocked(ts *topicState, sub *subscription) error {
	if len(sub.consumers) == 0 {
		return nil
	}
	// One timestamp covers the whole dispatch round: dispatch latency is
	// observed per delivered message but the clock is read at most once.
	var now time.Time
	if b.cluster.obsDispatchLat != nil && (len(sub.redeliver) > 0 || sub.nextDispatch < ts.win.end) {
		now = b.cluster.clock.Now()
	}
	sys := b.cluster.ledgers
	// Redeliveries first (preserving rough order), then fresh messages. A run
	// of consecutive seqs is one walk, so one reader when it is off-window.
	q, done := sub.redeliver, 0
	room := true
	var err error
	for done < len(q) && err == nil && room {
		to := q[done] + 1
		for i := done + 1; i < len(q) && q[i] == to; i++ {
			to++
		}
		err = ts.each(sys, q[done], to, func(m *Message) bool {
			if room = b.deliverLocked(sub, m, now); room {
				done++
			}
			return room
		})
	}
	sub.redeliver = q[:copy(q, q[done:])] // keep the backing array for the next round
	if err == nil && room {
		err = ts.each(sys, sub.nextDispatch, ts.win.end, func(m *Message) bool {
			// An acked seq was already consumed (e.g. cursor moved by recovery).
			if room = sub.acked(m.Seq) || b.deliverLocked(sub, m, now); room {
				sub.nextDispatch = m.Seq + 1
			}
			return room
		})
	}
	if !room {
		b.cluster.obs.Counter("pulsar.dispatch.blocked").Inc()
	}
	return err
}

// FNV-1a constants (inlined so KeyShared dispatch allocates nothing).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnv1a(s string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return h
}

// deliverLocked places m in the queue of the consumer the subscription mode
// picks, and reports whether it could: room in a consumer's queue is its
// permits, and this is the one place that finds there are none. Exclusive,
// Failover and KeyShared have one consumer that may take m, so a full queue
// there stops the round at m (order first); Shared passes a full consumer
// over for the next one with room and stops only when none has. A consumer
// that was refused is marked starved: it runs the round again once it has
// drained (Consumer.ensureAttached).
func (b *Broker) deliverLocked(sub *subscription, m *Message, now time.Time) bool {
	n := len(sub.consumers)
	tries := 1
	if sub.mode == Shared {
		tries = n
	}
	for ; tries > 0; tries-- {
		var target *consumerReg
		switch sub.mode {
		case Exclusive, Failover:
			target = sub.consumers[0]
		case Shared:
			target = sub.consumers[sub.rr%n]
			sub.rr++
		case KeyShared:
			target = sub.consumers[int(fnv1a(m.Key))%n]
		}
		if !target.inbox.push(m) {
			target.starved.Store(true)
			continue
		}
		// The consumer may be receiving m already; its ack waits for the
		// topic's lock, which the caller holds.
		sub.pending.set(m.Seq, target.id)
		if !now.IsZero() {
			b.cluster.obsDispatchLat.Observe(now.Sub(m.PublishTime))
		}
		// Traced deliveries (first dispatch, still within the publish window)
		// record a "pulsar.deliver" child; redeliveries of long-finalized
		// traces fall into the tracer's late-span count by design.
		if m.Trace.Valid() {
			b.cluster.tracer.Start(m.Trace, "pulsar.deliver").End()
		}
		target.wake()
		return true
	}
	return false
}

// loadTopic recovers a topic's state onto this broker after it acquires
// ownership: durable subscription cursors are read, previous ledgers are
// recovered (fencing any zombie writer), the message window is rebuilt over
// the unacked tail, and a fresh ledger is opened for new appends. Unacked
// messages redeliver on the next consumer attach (at-least-once).
//
// Everything that can refuse the load comes before anything the load
// creates or deletes: an unreadable cursor or ledger fails the takeover with
// the topic's ledger list and the ledger store exactly as they were, so a
// retry starts from the same place instead of leaking a ledger per attempt.
func (b *Broker) loadTopic(topicName string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return fmt.Errorf("%w: %s", ErrBrokerDown, b.ID)
	}
	if _, ok := b.topics[topicName]; ok {
		return nil
	}
	c := b.cluster

	prior, err := c.topicLedgers(topicName)
	if err != nil {
		return err
	}
	// Prior ledgers mean this is a failover takeover, not a first election;
	// time the whole recovery (ledger fencing + replay + cursor restore).
	takeover := len(prior) > 0
	recoverStart := c.clock.Now()
	cursors, err := c.topicSubscriptions(topicName)
	if err != nil {
		return err
	}
	// ranges has room for the open ledger and the one its first roll seals.
	ts := &topicState{name: topicName, listPath: ledgersPath(topicName), ranges: make([]ledgerRange, 0, 2), subs: map[string]*subscription{}}
	// The topic starts where its oldest retained ledger does: seqs below
	// it were deleted once every subscription had acked them. Ledgers that
	// recover empty are dropped from the topic's ledger list (and deleted
	// once the list no longer names them): nothing references them, and
	// without the prune every handoff would add one more ledger to recover
	// on the next handoff, making repeated reassignment O(moves) instead of
	// O(history).
	var empty []int64
	recovered := map[int64]*ledger.Reader{} // the replay reads through these
	start := int64(0)
	if len(prior) > 0 {
		start = prior[0].StartSeq
	}
	next := start
	for _, rg := range prior {
		r, err := c.ledgers.Recover(rg.ID)
		if err != nil {
			return err
		}
		if r.LastEntry() < 0 {
			empty = append(empty, rg.ID)
			continue
		}
		recovered[rg.ID] = r
		ts.ranges = append(ts.ranges, ledgerRange{ID: rg.ID, StartSeq: next})
		next += r.LastEntry() + 1
	}
	for name, cur := range cursors {
		if cur.AckedPrefix < start {
			// A cursor below the oldest retained seq — one written while no
			// owner had the topic loaded, so no subscription held the
			// ledgers under it — resumes where the topic now starts, as an
			// Earliest subscription would.
			i, _ := slices.BinarySearch(cur.Acks, start)
			cur.AckedPrefix, cur.Acks = start, cur.Acks[i:]
			for len(cur.Acks) > 0 && cur.Acks[0] == cur.AckedPrefix {
				cur.AckedPrefix, cur.Acks = cur.AckedPrefix+1, cur.Acks[1:]
			}
			cursors[name] = cur
		}
	}
	// The replay reads every entry, as a takeover always has — an unreadable
	// or undecodable one refuses the load — but keeps only what some cursor
	// has yet to ack, so the new owner's memory is the backlog too.
	keep := next
	for _, cur := range cursors {
		keep = min(keep, cur.AckedPrefix)
	}
	ts.win = msgWindow{base: keep, end: keep}
	open := func(id int64) (*ledger.Reader, error) { return recovered[id], nil }
	if err := ts.readRange(open, start, next, func(m *Message) bool {
		if m.Seq >= keep {
			ts.win.append(*m)
		}
		return true
	}); err != nil {
		return err
	}
	w, err := c.ledgers.CreateLedger(topicEnsemble, topicWriteQuorum, topicAckQuorum)
	if err != nil {
		return err
	}
	w.LedgerEntries = topicLedgerEntries
	ts.writer = w
	ts.ranges = append(ts.ranges, ledgerRange{ID: w.ID(), StartSeq: next})
	if err := c.setTopicLedgers(ts, ts.ranges); err != nil {
		return err
	}
	for _, id := range empty {
		_ = c.ledgers.DeleteLedger(id) // unreferenced now; a leftover is only garbage
	}

	for name, cur := range cursors {
		// Out-of-order acks come back too (the record is already ascending),
		// so the new owner never redelivers a message the subscription
		// already acked.
		sub := c.newSubscription(topicName, name, cur)
		ts.subs[name] = sub
		sub.updateBacklogLocked(ts)
	}
	b.topics[topicName] = ts
	if takeover {
		c.obsRecoveries.Inc()
		c.obsRecoveryTime.Observe(c.clock.Now().Sub(recoverStart))
	}
	return nil
}

// backlog returns how many messages a subscription has yet to ack.
func (b *Broker) backlog(topicName, subName string) (int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ts, sub, err := b.subLocked(topicName, subName)
	if err != nil {
		return 0, err
	}
	defer ts.mu.Unlock()
	return ts.win.end - sub.ackedPrefix - int64(len(sub.acks)), nil
}
