package pulsar

import "sort"

// This file is the duplicate-delivery injection surface the conformance
// explorer (internal/conform) and the chaos plane drive. At-least-once
// delivery means a consumer can see the same message twice whenever its ack
// is lost in flight; these hooks make that fault schedulable and exact:
// DropAcks swallows acks broker-side (the consumer believes it acked),
// RedeliverUnacked then pushes every still-pending message back through the
// same redelivery queue a consumer failover uses — no bespoke duplicate
// path, the production exact-cursor machinery is what gets exercised.
//
// All three entry points address a concrete topic (a plain topic, or one
// partition of a partitioned topic) and reach its owner through withOwner,
// as every client op does: a stale owner is re-resolved and the op retried,
// any other error (a missing subscription included) is returned as it is.

// DropAcks arms the subscription on a concrete topic to lose its next n acks
// in flight: each affected Ack reports success to the consumer while the
// broker-side cursor stays put, leaving the message delivered-but-unacked.
func (c *Cluster) DropAcks(topic, subName string, n int) error {
	return c.withOwner(topic, func(b *Broker) error {
		return b.dropNextAcks(topic, subName, n)
	})
}

// RedeliverUnacked requeues every delivered-but-unacked message of the
// subscription on a concrete topic through the standard redelivery path and
// dispatches immediately. It returns how many messages were redelivered.
func (c *Cluster) RedeliverUnacked(topic, subName string) (int, error) {
	var n int
	err := c.withOwner(topic, func(b *Broker) error {
		m, err := b.redeliverUnacked(topic, subName)
		n += m // a retry finds them queued already
		return err
	})
	return n, err
}

// AckedMessages returns copies of the payloads of every retained message the
// subscription on a concrete topic has acked, in seq order: messages in
// ledgers deleted once every subscription had acked them are gone. It is the
// verification read behind the conformance explorer's "set of acked messages
// per subscription" observable.
func (c *Cluster) AckedMessages(topic, subName string) ([][]byte, error) {
	var out [][]byte
	err := c.withOwner(topic, func(b *Broker) error {
		var err error
		out, err = b.ackedMessages(topic, subName)
		return err
	})
	return out, err
}

// Topics returns every topic node name — plain topics, partitioned parents
// and concrete partitions — sorted.
func (c *Cluster) Topics() ([]string, error) {
	names, err := c.meta.Children("/pulsar/topics")
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// Subscriptions returns the durable subscription names on a concrete topic,
// sorted (empty for topics with no subscriptions, including partitioned
// parents, which never carry cursors themselves).
func (c *Cluster) Subscriptions(topic string) ([]string, error) {
	subs, err := c.topicSubscriptions(topic)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(subs))
	for n := range subs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (b *Broker) dropNextAcks(topicName, subName string, n int) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ts, sub, err := b.subLocked(topicName, subName)
	if err != nil {
		return err
	}
	defer ts.mu.Unlock()
	sub.dropAcks += n
	return nil
}

func (b *Broker) redeliverUnacked(topicName, subName string) (int, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ts, sub, err := b.subLocked(topicName, subName)
	if err != nil {
		return 0, err
	}
	defer ts.mu.Unlock()
	queued := len(sub.redeliver)
	sub.redeliver = sub.pending.drain(0, sub.redeliver)
	n := len(sub.redeliver) - queued
	return n, b.dispatchLocked(ts, sub)
}

func (b *Broker) ackedMessages(topicName, subName string) ([][]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ts, sub, err := b.subLocked(topicName, subName)
	if err != nil {
		return nil, err
	}
	defer ts.mu.Unlock()
	// Every retained acked seq lies in [first, hi): the prefix, then the
	// out-of-order acks (ascending, all beyond it).
	lo, hi := ts.first(), sub.ackedPrefix
	if n := len(sub.acks); n > 0 {
		hi = sub.acks[n-1] + 1
	}
	out := make([][]byte, 0, max(0, int(sub.ackedPrefix-lo))+len(sub.acks))
	if err := ts.each(b.cluster.ledgers, lo, min(hi, ts.win.end), func(m *Message) bool {
		if sub.acked(m.Seq) {
			out = append(out, append([]byte(nil), m.Payload...))
		}
		return true
	}); err != nil {
		return nil, err
	}
	return out, nil
}
