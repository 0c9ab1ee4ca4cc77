package pulsar

import (
	"sync/atomic"
	"time"

	"repro/internal/simclock"
)

// Replicator implements Pulsar's geo-replication (§4.3 names it among the
// system's key features): messages published to a topic in one cluster are
// asynchronously republished to a topic in another cluster, preserving
// per-key order. As in Pulsar, the replicator is a durable subscription on
// the source topic feeding a producer on the destination cluster.
type Replicator struct {
	src     *Cluster
	dst     *Cluster
	stopped int32
	wg      *simclock.Group

	replicated int64
	dropped    int64
}

// ReplicatorConfig parameterizes geo-replication.
type ReplicatorConfig struct {
	// SrcTopic is consumed on the source cluster.
	SrcTopic string
	// DstTopic is produced to on the destination cluster (must exist).
	DstTopic string
	// MaxRetries bounds how many times a failed destination publish is
	// retried (with doubling backoff from RetryBase) before the message is
	// dropped — acked on the source and counted in pulsar.georepl.dropped —
	// so one poisoned message cannot wedge the replication stream forever.
	// Default 5.
	MaxRetries int
	// RetryBase is the first retry backoff; it doubles per retry. Default
	// 5ms.
	RetryBase time.Duration
}

const (
	// replSubscription names the replicator's durable cursor on the source.
	replSubscription = "geo-replicator"
	// replPoll bounds the replicator's idle wait.
	replPoll = 5 * time.Millisecond
)

// StartReplicator begins replicating src's messages (from the earliest
// unreplicated position) into dst. Stop it with Stop; the durable
// subscription survives, so a restarted replicator resumes where it left
// off.
func StartReplicator(src, dst *Cluster, cfg ReplicatorConfig) (*Replicator, error) {
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 5
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = replPoll
	}
	cons, err := src.Subscribe(cfg.SrcTopic, replSubscription, Failover, Earliest)
	if err != nil {
		return nil, err
	}
	prod, err := dst.CreateProducer(cfg.DstTopic)
	if err != nil {
		cons.Close()
		return nil, err
	}
	r := &Replicator{src: src, dst: dst, wg: simclock.NewGroup(src.clock)}
	// mirrored tracks the highest source seq already published to the
	// destination, per concrete source topic. A message can arrive twice —
	// its ack was lost in flight or the source broker failed over before the
	// cursor persisted — and republishing it would double it on the
	// destination. Seqs are per-partition monotone and the replicator is the
	// subscription's only consumer, so "seq ≤ high-water mark" is exactly
	// "already replicated": re-ack it and move on.
	mirrored := map[string]int64{}
	r.wg.Go(func() {
		defer cons.Close()
		for atomic.LoadInt32(&r.stopped) == 0 {
			m, ok := cons.TryReceive()
			if !ok {
				src.clock.Sleep(replPoll)
				continue
			}
			if hw, ok := mirrored[m.Topic]; ok && m.Seq <= hw {
				_ = cons.Ack(m) // duplicate delivery of a mirrored message
				continue
			}
			_, err := prod.SendKey(m.Key, m.Payload)
			backoff := cfg.RetryBase
			retry := 0
			for ; err != nil && retry < cfg.MaxRetries && atomic.LoadInt32(&r.stopped) == 0; retry++ {
				src.clock.Sleep(backoff)
				backoff *= 2
				_, err = prod.SendKey(m.Key, m.Payload)
			}
			if err != nil {
				if retry < cfg.MaxRetries {
					// Stopped mid-retry: leave the message unacked so the
					// durable cursor holds position for the next replicator.
					break
				}
				// Retries exhausted: drop the message rather than wedge the
				// stream — ack it on the source and count the loss.
				atomic.AddInt64(&r.dropped, 1)
				src.obsGeoDropped.Inc()
				_ = cons.Ack(m)
				continue
			}
			if hw, ok := mirrored[m.Topic]; !ok || m.Seq > hw {
				mirrored[m.Topic] = m.Seq
			}
			if err := cons.Ack(m); err == nil {
				atomic.AddInt64(&r.replicated, 1)
				src.obsGeoReplicated.Inc()
			}
		}
	})
	return r, nil
}

// Replicated returns how many messages have been mirrored.
func (r *Replicator) Replicated() int64 { return atomic.LoadInt64(&r.replicated) }

// Dropped returns how many messages were abandoned after exhausting their
// destination-publish retries.
func (r *Replicator) Dropped() int64 { return atomic.LoadInt64(&r.dropped) }

// Stop halts replication (clock-aware).
func (r *Replicator) Stop() {
	atomic.StoreInt32(&r.stopped, 1)
	r.wg.Wait()
}
