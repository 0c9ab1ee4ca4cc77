package pulsar

import (
	"sync/atomic"
	"time"
)

// Replicator implements Pulsar's geo-replication (§4.3 names it among the
// system's key features): messages published to a topic in one cluster are
// asynchronously republished to a topic in another cluster, preserving
// per-key order. As in Pulsar, the replicator is a durable subscription on
// the source topic feeding a producer on the destination cluster: a push
// consumer, so an idle replicator holds no goroutine.
type Replicator struct {
	cons    *Consumer
	stopped atomic.Bool

	replicated atomic.Int64
	dropped    atomic.Int64
}

const (
	// replSubscription names the replicator's durable cursor on the source.
	replSubscription = "geo-replicator"
	// A failed destination publish is retried replRetries times, backing off
	// replRetryBase and doubling, before the message is dropped — acked on
	// the source and counted in pulsar.georepl.dropped — so one poisoned
	// message cannot wedge the replication stream forever.
	replRetries   = 5
	replRetryBase = 5 * time.Millisecond
)

// StartReplicator begins replicating srcTopic on src (from the earliest
// unreplicated position) into dstTopic on dst, which must exist. Stop it
// with Stop; the durable subscription survives, so a restarted replicator
// resumes where it left off.
func StartReplicator(src, dst *Cluster, srcTopic, dstTopic string) (*Replicator, error) {
	prod, err := dst.CreateProducer(dstTopic)
	if err != nil {
		return nil, err
	}
	r := &Replicator{}
	// mirrored tracks the highest source seq already published to the
	// destination, per concrete source topic. A message can arrive twice —
	// its ack was lost in flight or the source broker failed over before the
	// cursor persisted — and republishing it would double it on the
	// destination. Seqs are per-partition monotone and the replicator is the
	// subscription's only consumer, so "seq ≤ high-water mark" is exactly
	// "already replicated": ack it again and move on. One drain at a time
	// calls mirror, so the map needs no lock.
	mirrored := map[string]int64{}
	mirror := func(m Message) error {
		if hw, ok := mirrored[m.Topic]; ok && m.Seq <= hw {
			return nil
		}
		backoff := replRetryBase
		for retry := 0; ; retry++ {
			if r.stopped.Load() {
				// Stop is closing the consumer: leave the message unacked
				// so the durable cursor holds position for the next
				// replicator.
				return ErrConsumerClosed
			}
			if _, err := prod.SendKey(m.Key, m.Payload); err == nil {
				break
			}
			if retry == replRetries {
				// Retries exhausted: drop the message rather than wedge the
				// stream — it is acked on the source and the loss counted.
				r.dropped.Add(1)
				src.obsGeoDropped.Inc()
				return nil
			}
			src.clock.Sleep(backoff)
			backoff *= 2
		}
		mirrored[m.Topic] = m.Seq
		r.replicated.Add(1)
		src.obsGeoReplicated.Inc()
		return nil
	}
	if r.cons, err = src.subscribe(srcTopic, replSubscription, Failover, Earliest, mirror); err != nil {
		return nil, err
	}
	return r, nil
}

// Replicated returns how many messages have been mirrored.
func (r *Replicator) Replicated() int64 { return r.replicated.Load() }

// Dropped returns how many messages were abandoned after exhausting their
// destination-publish retries.
func (r *Replicator) Dropped() int64 { return r.dropped.Load() }

// Stop halts replication (clock-aware): it waits for the running mirror call
// and its ack, so the consumer detaches with nothing mirrored left unacked,
// then closes the consumer.
func (r *Replicator) Stop() {
	r.stopped.Store(true)
	r.cons.drains.Wait()
	r.cons.Close()
}
