package pulsar

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/simclock"
)

// ProducerOptions tunes a producer's batching behavior.
type ProducerOptions struct {
	// MaxBatch is the number of messages SendAsync buffers, across all
	// partitions, before forcing a flush (one group-commit ledger append per
	// partition the buffer holds). ≤1 disables batching: every SendAsync
	// publishes immediately. Defaults to the cluster's
	// ClusterConfig.BatchMaxMessages.
	MaxBatch int
}

// Producer publishes messages to a topic (routing across partitions for
// partitioned topics: by key hash when a key is given, round-robin
// otherwise). With batching enabled (MaxBatch > 1), SendAsync buffers
// messages for every partition in one batch and commits each partition's
// share with one replicated ledger round trip.
type Producer struct {
	c     *Cluster
	topic string
	rr    int64

	// holder is the logical topic's shared routing handle: every route is a
	// lock-free load of the current table, so a partition split is visible
	// to existing producers on their next send — there is no per-producer
	// partition count to go stale (brokers additionally fence stale routes
	// with ErrRouteMoved; see sendKey's re-route).
	holder *routeHolder

	maxBatch int
	interval time.Duration

	mu      sync.Mutex
	firstAt time.Time // publish-clock time of the oldest buffered message
	// batchRT pins one routing-table snapshot for the lifetime of the
	// buffered batch (refreshed whenever the buffer is empty). Without the
	// pin, a split mid-buffer could spread one key across two partition
	// groups whose flush order is unordered — a per-key order violation.
	// With it, a stale group is bounced whole by the broker's range fence and
	// redistributed in message order (see publishGroup).
	batchRT *routeTable

	// The batch is one slot per buffered message, in arrival order, across
	// every partition: its concrete topic, key, payload view into buf, trace
	// and the entry scratch the broker fills (all guarded by mu). The first
	// SendAsync allocates each array at MaxBatch slots, which the batch
	// never outgrows: it flushes when full. A flush holds mu throughout and
	// the broker has encoded every payload into its ledger's bytes by the
	// time it returns, so the slots are cleared (the producer pins no
	// ledger chunk) and buf rewound after each one, and the steady-state
	// publish path allocates nothing apart from the entry bytes.
	routes   []string
	keys     []string
	payloads [][]byte
	traces   []obs.TraceCtx
	entries  [][]byte
	buf      []byte
}

// CreateProducer opens a producer for an existing topic with the cluster's
// default batching configuration.
func (c *Cluster) CreateProducer(topic string) (*Producer, error) {
	return c.CreateProducerOpts(topic, ProducerOptions{MaxBatch: c.cfg.BatchMaxMessages})
}

// CreateProducerOpts opens a producer with explicit batching options.
func (c *Cluster) CreateProducerOpts(topic string, opts ProducerOptions) (*Producer, error) {
	h, err := c.routing(topic)
	if err != nil {
		return nil, err
	}
	if opts.MaxBatch < 1 {
		opts.MaxBatch = 1
	}
	return &Producer{
		c:        c,
		topic:    topic,
		holder:   h,
		maxBatch: opts.MaxBatch,
		interval: c.cfg.BatchFlushInterval,
	}, nil
}

// Send publishes an unkeyed message and returns its sequence number within
// its partition.
func (p *Producer) Send(payload []byte) (int64, error) {
	return p.SendKey("", payload)
}

// SendKey publishes a keyed message synchronously. Keyed messages on
// partitioned topics always route to the same partition, preserving per-key
// order. Any buffered SendAsync messages flush first, so the synchronous
// message never overtakes them.
func (p *Producer) SendKey(key string, payload []byte) (int64, error) {
	return p.sendKey(key, payload, obs.TraceCtx{})
}

// SendKeyTrace is SendKey under the caller's causal context: a valid tc adds
// a "pulsar.publish" span covering every attempt (owner resolution, the
// durable append, dispatch), with the ledger append and each delivery as
// children. A zero tc traces nothing.
func (p *Producer) SendKeyTrace(key string, payload []byte, tc obs.TraceCtx) (int64, error) {
	if !tc.Valid() {
		return p.sendKey(key, payload, obs.TraceCtx{})
	}
	span := p.c.tracer.Start(tc, "pulsar.publish")
	seq, err := p.sendKey(key, payload, span.Ctx())
	span.EndErr(err != nil)
	return seq, err
}

// sendKey is the shared synchronous publish path; pctx (the publish span's
// context, or zero when untraced) flows to the broker so deliveries and the
// ledger append parent on it. It does not hold p.mu across the broker call:
// concurrent invocations of a function whose handler publishes share one
// producer, and a raw mutex wait behind a publish that sleeps on the clock
// would stall a virtual clock.
func (p *Producer) sendKey(key string, payload []byte, pctx obs.TraceCtx) (int64, error) {
	p.mu.Lock()
	if err := p.flushLocked(); err != nil {
		p.mu.Unlock()
		return 0, err
	}
	t := p.routeTo(p.holder.load(), key)
	p.mu.Unlock()
	// A group commit of one: the arrays stay on the stack, and the payload
	// is read only by the broker's encode, within this call.
	keys, payloads, traces, entries := [1]string{key}, [1][]byte{payload}, [1]obs.TraceCtx{pctx}, [1][]byte{}
	var seq int64
	send := func(b *Broker) (err error) {
		seq, err = b.publishEntries(t, keys[:], payloads[:], traces[:], entries[:])
		return err
	}
	err := p.c.withOwner(t, send)
	if errors.Is(err, ErrRouteMoved) {
		// The partition split after we routed: ownership is fine, the route
		// is stale. Re-route against the current table and republish to the
		// child.
		t = p.routeTo(p.holder.load(), key)
		err = p.c.withOwner(t, send)
	}
	if err != nil {
		return 0, err
	}
	p.c.meterPublish(1)
	return seq, nil
}

// SendAsync buffers a keyed message for batched publication. The batch
// commits — one group ledger append per partition it holds — when it holds
// MaxBatch messages across all partitions, when a later SendAsync finds the
// oldest buffered message older than BatchFlushInterval, or on an explicit Flush.
// The payload is copied at enqueue time, so the caller may reuse its buffer
// immediately. A flush error discards that flush's buffered messages; the
// caller decides whether to re-send. They were never assigned seqs, except
// that a partition's group whose ledger append failed part-way has published
// the entries that committed before the failure, so a re-send duplicates
// those.
func (p *Producer) SendAsync(key string, payload []byte) error {
	return p.SendAsyncTrace(key, payload, obs.TraceCtx{})
}

// SendAsyncTrace is SendAsync carrying the caller's causal context. Batched
// publishes are traced coarsely: each buffered message remembers its tc, each
// partition's group ledger commit parents on its first traced message, and
// each delivery parents on its own message's tc.
func (p *Producer) SendAsyncTrace(key string, payload []byte, tc obs.TraceCtx) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.keys) == 0 {
		if p.keys == nil {
			n := p.maxBatch
			p.routes, p.keys, p.payloads = make([]string, 0, n), make([]string, 0, n), make([][]byte, 0, n)
			p.traces, p.entries = make([]obs.TraceCtx, 0, n), make([][]byte, n)
		}
		// Route against the batch's pinned table snapshot so a concurrent
		// split never spreads one key across two unordered groups (see
		// batchRT).
		p.batchRT = p.holder.load()
	}
	n := len(p.buf)
	p.buf = append(p.buf, payload...)
	p.routes = append(p.routes, p.routeTo(p.batchRT, key))
	p.keys = append(p.keys, key)
	p.payloads = append(p.payloads, p.buf[n:len(p.buf):len(p.buf)])
	p.traces = append(p.traces, tc)
	if len(p.keys) >= p.maxBatch {
		return p.flushLocked()
	}
	// The staleness bound needs the clock only when the batch stays open.
	now := p.c.clock.Now()
	if len(p.keys) == 1 {
		p.firstAt = now
	} else if p.interval > 0 && now.Sub(p.firstAt) >= p.interval {
		return p.flushLocked()
	}
	return nil
}

// Flush publishes every buffered SendAsync message. It is a no-op on an
// empty buffer.
func (p *Producer) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked()
}

// flushLocked commits the batch, one group per partition. Called with p.mu
// held. The batch is emptied (its slots cleared, buf rewound) regardless of
// outcome.
func (p *Producer) flushLocked() error {
	n := len(p.keys)
	if n == 0 {
		return nil
	}
	err := p.publishGroups(0, n, true)
	clear(p.routes)
	clear(p.keys)
	clear(p.payloads)
	clear(p.traces)
	clear(p.entries[:n])
	p.routes, p.keys, p.payloads, p.traces = p.routes[:0], p.keys[:0], p.payloads[:0], p.traces[:0]
	p.buf = p.buf[:0]
	return err
}

// publishGroups commits batch slots [lo, hi), one group commit per concrete
// topic, in the order of each topic's first message. It groups the slots in
// place first, stably: a topic's messages become one contiguous run in
// arrival order, and since a key routes to one topic, per-key order holds.
// Called with p.mu held.
func (p *Producer) publishGroups(lo, hi int, allowReroute bool) error {
	var firstErr error
	for lo < hi {
		end := lo + 1
		for i := end; i < hi; i++ {
			if p.routes[i] == p.routes[lo] {
				moveTo(p.routes, end, i)
				moveTo(p.keys, end, i)
				moveTo(p.payloads, end, i)
				moveTo(p.traces, end, i)
				end++
			}
		}
		if err := p.publishGroup(lo, end, allowReroute); err != nil && firstErr == nil {
			firstErr = err
		}
		lo = end
	}
	return firstErr
}

// moveTo moves s[from] to s[to], to <= from, shifting s[to:from] up one.
func moveTo[T any](s []T, to, from int) {
	v := s[from]
	copy(s[to+1:from+1], s[to:from])
	s[to] = v
}

// publishGroup commits batch slots [lo, hi), all routed to one concrete
// topic, through withOwner, like the synchronous path. With allowReroute, a
// group bounced whole by the broker's key-range fence (the partition split
// while it was buffered) is re-routed against the current table, in message
// order, and published again as groups. Called with p.mu held: unlike a
// synchronous send, a flush keeps the lock across the broker call, which is
// what keeps per-key order across flushes.
func (p *Producer) publishGroup(lo, hi int, allowReroute bool) error {
	t := p.routes[lo]
	err := p.c.withOwner(t, func(b *Broker) error {
		_, err := b.publishEntries(t, p.keys[lo:hi], p.payloads[lo:hi], p.traces[lo:hi], p.entries[lo:hi])
		return err
	})
	if errors.Is(err, ErrRouteMoved) && allowReroute {
		tbl := p.holder.load()
		for i := lo; i < hi; i++ {
			p.routes[i] = p.routeTo(tbl, p.keys[i])
		}
		// A second fence bounce would mean routing regressed mid-call;
		// surface it rather than recurse.
		return p.publishGroups(lo, hi, false)
	}
	if err == nil {
		p.c.meterPublish(hi - lo)
	}
	return err
}

// routeTo picks the concrete topic for a key under the given table: plain
// topics route to themselves, keys route by hash range, unkeyed messages
// round-robin across every concrete partition.
func (p *Producer) routeTo(tbl *routeTable, key string) string {
	if len(tbl.parts) == 0 {
		return p.topic
	}
	if key != "" {
		return tbl.lookup(uint64(fnv1a(key)))
	}
	return tbl.names[int(atomic.AddInt64(&p.rr, 1)-1)%len(tbl.names)]
}

// Consumer receives messages from a subscription. For partitioned topics it
// consumes a merged stream across all partitions. It holds a receiver queue,
// not the backlog: brokers push into a fixed ring of receiverQueue messages
// and end their dispatch round when it is full; Receive pops the ring, asks
// the brokers for the rest once it has drained to half, and transparently
// re-attaches after broker failovers.
//
// At most one goroutine may call TryReceive/Receive on a given Consumer at a
// time (brokers push into its queue concurrently from many topics; delivery
// order means something to one receiver only). Use one Consumer per receiving
// goroutine, as every existing caller does. Close may come from any goroutine.
type Consumer struct {
	c    *Cluster
	name string // topic
	sub  string
	mode SubMode
	pos  InitialPosition

	// reg is what brokers hold of this consumer: its id, its queue and the
	// mark a broker leaves when the queue was full.
	reg consumerReg

	// holder tracks the logical topic's routing table; rtVersion is the
	// last version whose partitions this consumer has seen. A split bumps
	// the version, and the next attach pass discovers the child partitions
	// (appended to names in creation order — parents first, which is what
	// keeps per-key delivery ordered across a split). Partitions beyond the
	// initial initialN attach at Earliest regardless of the subscription's
	// requested position: a child's stream starts at the split, and
	// skipping its backlog would drop post-split messages.
	holder   *routeHolder
	initialN int

	mu        sync.Mutex
	concrete  []string
	rtVersion int64
	epochs    map[string]int64 // ownership epoch attached at; none until the first attach
	closed    bool

	fn           func(Message) error // a push consumer's (SubscribeFunc) callback
	wakes        atomic.Int64        // wakes the running drain has not covered yet
	drains       *simclock.Group     // counts the running drain, for Replicator.Stop to wait on
	deadLettered atomic.Int64        // messages fn refused maxDeliveries times and deadLetter moved

	// A pull consumer's Receive parks on sem until a wake, Close or its
	// deadline timer, both made by the first Receive that waits. The timer
	// reaches the consumer only through cell, which Close clears, so a timer
	// still pending after Close pins the cell, not the cluster.
	state atomic.Int32 // recvIdle, recvWaiting or recvWoken
	sem   *simclock.Sem
	timer *simclock.Timer
	cell  *atomic.Pointer[Consumer]
}

// Receive's states: a wake moves any of them to recvWoken, and releases sem
// only when it finds recvWaiting, so sem never holds more than one permit.
const (
	recvIdle int32 = iota
	recvWaiting
	recvWoken
)

// Subscribe attaches a new consumer to (creating if needed) the named
// durable subscription.
func (c *Cluster) Subscribe(topic, subName string, mode SubMode, pos InitialPosition) (*Consumer, error) {
	return c.subscribe(topic, subName, mode, pos, nil)
}

// SubscribeFunc attaches a push consumer to the Shared subscription sub on
// topic, created at Latest: each message placed in its queue is handed to fn
// on a tracked goroutine and acked when fn returns nil. A message fn fails is
// handed to it again redeliverDelay later, and after maxDeliveries failed
// calls is published to the topic "<topic>-<sub>-DLQ" and acked, so every
// message ends acked or dead-lettered. An idle push consumer holds no
// goroutine: a delivery starts its drain, and so does an ownership change
// (claim), whose attach pass re-subscribes it.
func (c *Cluster) SubscribeFunc(topic, sub string, fn func(Message) error) error {
	_, err := c.subscribe(topic, sub, Shared, Latest, fn)
	return err
}

func (c *Cluster) subscribe(topic, subName string, mode SubMode, pos InitialPosition, fn func(Message) error) (*Consumer, error) {
	h, err := c.routing(topic)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.nextConsumer++
	id := c.nextConsumer
	c.mu.Unlock()
	tbl := h.load()
	cons := &Consumer{
		c:         c,
		name:      topic,
		sub:       subName,
		mode:      mode,
		pos:       pos,
		reg:       consumerReg{id: id, inbox: newInbox()},
		holder:    h,
		initialN:  len(tbl.names),
		concrete:  append([]string(nil), tbl.names...),
		rtVersion: tbl.version,
		epochs:    map[string]int64{},
		fn:        fn,
		cell:      new(atomic.Pointer[Consumer]),
	}
	cons.cell.Store(cons)
	cons.reg.wake = cons.wake
	if fn != nil {
		cons.drains = simclock.NewGroup(c.clock)
	}
	if err := cons.ensureAttached(); err != nil {
		cons.Close() // it may be attached somewhere: a later partition, or the backlog read, failed
		return nil, err
	}
	c.mu.Lock()
	c.consumers = append(c.consumers, cons)
	c.mu.Unlock()
	cons.wake() // its attach pass covers a claim between the first one and the listing
	return cons, nil
}

// wake tells the consumer something may be waiting: a push consumer's drain
// starts, or takes another pass (one drain keeps TryReceive's one-receiver
// rule), and a parked Receive is released. It comes from brokers under the
// topic's lock and from claim under cons.mu, so it takes neither lock.
func (cons *Consumer) wake() {
	if cons.fn != nil {
		if cons.wakes.Add(1) == 1 {
			cons.drains.Go(cons.drain)
		}
		return
	}
	if cons.state.Swap(recvWoken) == recvWaiting {
		cons.sem.Release()
	}
}

// A push consumer's retry contract (deliver).
const (
	// redeliverDelay is the shed-load back-off the gateway sends as
	// Retry-After: a throttled function gets its event back once a slot has
	// had that long to free.
	redeliverDelay = time.Second
	// maxDeliveries is how many calls a message gets before it is
	// dead-lettered, so one a handler keeps refusing holds its drain for at
	// most (maxDeliveries-1)×redeliverDelay.
	maxDeliveries = 5
)

// drain delivers each message in turn. A pass ends on the pop that finds the
// queue empty, which makes an attach pass (tryReceive); the drain exits once
// a pass has covered every wake.
func (cons *Consumer) drain() {
	for n := cons.wakes.Load(); n != 0; n = cons.wakes.Add(-n) {
		for {
			m, ok, _ := cons.tryReceive()
			if !ok {
				break
			}
			cons.deliver(m)
		}
	}
}

// deliver calls fn with m until it returns nil, and acks m then. The calls
// are redeliverDelay apart, and once maxDeliveries have failed m is
// dead-lettered. Retrying in place, not by a nack to the broker, is what
// keeps per-key order on a Failover or KeyShared subscription: no later
// message overtakes m. m stays unacked, for Close to offer again, if fn
// returns ErrConsumerClosed or the consumer is closed while it waits.
func (cons *Consumer) deliver(m Message) {
	for calls := 1; ; calls++ {
		err := cons.fn(m)
		switch {
		case err == nil:
			_ = cons.Ack(m)
			return
		case errors.Is(err, ErrConsumerClosed):
			return
		case calls == maxDeliveries:
			cons.deadLetter(m)
			return
		}
		cons.c.clock.Sleep(redeliverDelay)
		if cons.cell.Load() == nil {
			return
		}
	}
}

// deadLetter publishes m, under its key and trace, to the consumer's
// dead-letter topic, "<topic>-<sub>-DLQ" (the name Pulsar's client gives
// it), created on first use, and acks m. If the publish fails m stays
// unacked, counted in pulsar.dead_letter.failed.
func (cons *Consumer) deadLetter(m Message) {
	dlq := cons.name + "-" + cons.sub + "-DLQ"
	err := cons.c.CreateTopic(dlq, 0)
	if err == nil || errors.Is(err, ErrTopicExists) {
		var p *Producer
		if p, err = cons.c.CreateProducer(dlq); err == nil {
			_, err = p.SendKeyTrace(m.Key, m.Payload, m.Trace)
		}
	}
	if err != nil {
		cons.c.obsDeadLetterFailed.Inc()
		return
	}
	cons.deadLettered.Add(1)
	cons.c.obsDeadLettered.Inc()
	_ = cons.Ack(m)
}

// ensureAttached is one pass over the consumer's partitions, in creation
// order, first folding in any a split created since the last pass. A
// partition whose ownership epoch changed is subscribed again on its new
// owner. If a broker found the queue full since the last pass, the mark is
// cleared and every other partition is subscribed again too, which changes
// nothing on its broker and runs the dispatch round the full queue ended.
//
// A partition is attached for the first time only while no partition before
// it has been refused room. Per-key order across a split is the parent's
// backlog entering the queue before the child's stream (route.go); with a
// queue that can fill, that means the child waits until a pass over the
// partitions already attached has placed everything they had.
func (cons *Consumer) ensureAttached() (err error) {
	cons.mu.Lock()
	defer cons.mu.Unlock()
	if cons.closed {
		return ErrConsumerClosed
	}
	if tbl := cons.holder.load(); tbl.version != cons.rtVersion {
		// names is append-only across splits, so new partitions are exactly
		// the tail beyond what we already track.
		if len(tbl.names) > len(cons.concrete) {
			cons.concrete = append(cons.concrete, tbl.names[len(cons.concrete):]...)
		}
		cons.rtVersion = tbl.version
	}
	flow := cons.reg.starved.Swap(false)
	if flow {
		defer func() {
			if err != nil {
				cons.reg.starved.Store(true) // the pass did not finish: the next one asks again
			}
		}()
	}
	for i, t := range cons.concrete {
		b, ep, err := cons.c.ensureOwner(t)
		if err != nil {
			return err
		}
		attached := cons.epochs[t]
		if attached == ep && !flow {
			continue
		}
		if attached == 0 && cons.reg.starved.Load() {
			return nil
		}
		pos := cons.pos
		if i >= cons.initialN {
			pos = Earliest // split children: consume from their first message
		}
		if err := b.subscribe(t, cons.sub, cons.mode, pos, &cons.reg); err != nil {
			if staleOwner(err) {
				cons.c.invalidateOwner(t) // the next attach re-resolves
			}
			return err
		}
		cons.epochs[t] = ep
	}
	return nil
}

// tryReceive pops the queue, and makes an attach pass when it is empty (the
// owner may have changed) or has drained to half with a broker waiting for
// room (Pulsar's Flow: a consumer that keeps up never takes that path). The
// error is the attach pass's, for Receive to tell a closed consumer from an
// empty one.
func (cons *Consumer) tryReceive() (Message, bool, error) {
	in := cons.reg.inbox
	m, ok := in.pop()
	if ok && !(cons.reg.starved.Load() && in.len() <= receiverQueue/2) {
		return m, true, nil
	}
	err := cons.ensureAttached()
	if !ok && err == nil {
		m, ok = in.pop()
	}
	return m, ok, err
}

// TryReceive returns a buffered message without waiting.
func (cons *Consumer) TryReceive() (Message, bool) {
	m, ok, _ := cons.tryReceive()
	return m, ok
}

// Receive waits up to timeout (on the cluster clock) for a message, parked
// between passes until a wake or its deadline; the boolean reports whether
// one arrived. On a closed consumer it is false at once.
func (cons *Consumer) Receive(timeout time.Duration) (Message, bool) {
	deadline := cons.c.clock.Now().Add(timeout)
	for {
		cons.state.Store(recvIdle) // a wake from here on makes the park fall through
		m, ok, err := cons.tryReceive()
		if ok {
			return m, true
		}
		if errors.Is(err, ErrConsumerClosed) || !cons.c.clock.Now().Before(deadline) {
			return Message{}, false
		}
		if cons.sem == nil {
			cell := cons.cell
			cons.sem = simclock.NewSem(cons.c.clock, 0)
			cons.timer = simclock.NewTimer(cons.c.clock, func() {
				if c := cell.Load(); c != nil {
					c.wake()
				}
			})
		}
		cons.timer.Reset(deadline)
		if cons.state.CompareAndSwap(recvIdle, recvWaiting) {
			cons.sem.Acquire()
		}
	}
}

// Ack marks a message consumed, advancing the subscription's durable cursor.
// Like publish, it goes through withOwner: a stale owner is re-resolved and
// the ack retried on the real one.
func (cons *Consumer) Ack(m Message) error {
	return cons.c.withOwner(m.Topic, func(b *Broker) error {
		return b.ack(m.Topic, cons.sub, m.Seq)
	})
}

// Close detaches the consumer and empties its queue: its unacked messages,
// those included, redeliver to surviving consumers on the subscription, and a
// closed consumer hands out nothing. A parked Receive returns at once.
func (cons *Consumer) Close() {
	cons.mu.Lock()
	if cons.closed {
		cons.mu.Unlock()
		return
	}
	cons.closed = true
	concrete := append([]string{}, cons.concrete...)
	cons.mu.Unlock()
	cons.cell.Store(nil)
	cons.c.mu.Lock()
	cons.c.consumers = slices.DeleteFunc(cons.c.consumers, func(x *Consumer) bool { return x == cons })
	cons.c.mu.Unlock()
	for _, t := range concrete {
		if b, _ := cons.c.lockHolder(t); b != nil {
			b.detach(t, cons.sub, cons.reg.id)
		}
	}
	// Nothing pushes any more: every broker that knew the consumer has let go.
	for ok := true; ok; {
		_, ok = cons.reg.inbox.pop()
	}
	cons.wake()
}
