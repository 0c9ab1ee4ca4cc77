package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pulsar"
)

const (
	streamTopic   = "bench"
	streamSub     = "sub"
	streamBurst   = 100 // messages due at each grid instant
	streamWarm    = 10  // warm-up bursts, on the same grid as the timed ones
	streamKeys    = 1024
	streamPayload = 256
	// drainTimeout is how long the consumer waits for a message after the
	// last one before it gives the rest up as lost.
	drainTimeout = 3 * time.Second
)

// streamPacedRound is the open-loop messaging workload: bursts of keyed
// messages published on a grid, alternately through a sync producer and a
// batching one, and one consumer that receives and acks each message.
// Latency runs from a message's due instant to Receive returning it.
func streamPacedRound(e env) (roundResult, error) {
	r := roundResult{layer: map[string]float64{}}
	t0 := time.Now()
	bursts := e.size(gridBursts, 1)
	p := core.New(core.Options{})
	if err := p.Pulsar.CreateTopic(streamTopic, 4); err != nil {
		return r, err
	}
	syncProd, err := p.Pulsar.CreateProducer(streamTopic)
	if err != nil {
		return r, err
	}
	batchProd, err := p.Pulsar.CreateProducerOpts(streamTopic, pulsar.ProducerOptions{MaxBatch: 16})
	if err != nil {
		return r, err
	}
	cons, err := p.Pulsar.Subscribe(streamTopic, streamSub, pulsar.Shared, pulsar.Earliest)
	if err != nil {
		return r, err
	}
	defer cons.Close()

	rng := rand.New(rand.NewSource(e.roundSeed()))
	keys := make([]string, streamKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d-%08x", i, rng.Uint32())
	}
	warm := streamWarm * streamBurst
	total := warm + bursts*streamBurst
	// Even bursts go through the sync producer and odd ones through the
	// batching one; each owns half of the key set, so per-key order is
	// decided by one producer.
	keyOf := make([]uint16, total)
	for id := range keyOf {
		keyOf[id] = uint16(id/streamBurst%2*(streamKeys/2) + rng.Intn(streamKeys/2))
	}
	payload := make([]byte, streamPayload)
	rng.Read(payload)

	// publish sends one burst; every message carries its id and key index.
	publish := func(burst int) (failed int) {
		first := burst * streamBurst
		b0 := time.Now()
		for id := first; id < first+streamBurst; id++ {
			stamp(payload, uint64(id))
			binary.BigEndian.PutUint16(payload[8:], keyOf[id])
			key := keys[keyOf[id]]
			var err error
			if burst%2 == 1 {
				err = batchProd.SendAsync(key, payload)
			} else if e.tr == nil {
				_, err = syncProd.SendKey(key, payload)
			} else {
				s0 := time.Now()
				_, err = syncProd.SendKey(key, payload)
				e.tr.add(kSendSync, uint64(id), s0, time.Now())
			}
			if err != nil {
				failed++
			}
		}
		if burst%2 == 1 {
			if err := batchProd.Flush(); err != nil {
				failed += streamBurst
			}
			e.tr.add(kSendBatch, uint64(first), b0, time.Now())
		}
		return failed
	}

	// The consumer validates as it goes: every id once, ids of one key in
	// increasing order, and the key the message was published under.
	var (
		start      atomic.Int64 // the first grid instant, as nanoseconds after t0
		published  atomic.Bool
		warmDone   = make(chan struct{})
		consDone   = make(chan struct{})
		seen       = make([]bool, total)
		lastOfKey  = make([]int, streamKeys)
		received   int
		redeliv    int
		violations int
		lastRecv   time.Time
	)
	for i := range lastOfKey {
		lastOfKey[i] = -1
	}
	r.lat = make([]float64, total-warm)
	go func() {
		defer close(consDone)
		idle := time.Now()
		for received < total {
			w0 := time.Now()
			m, ok := cons.Receive(100 * time.Millisecond)
			now := time.Now()
			if !ok {
				if published.Load() && now.Sub(idle) > drainTimeout {
					return
				}
				continue
			}
			idle = now
			id := int(stampedOp(m.Payload))
			if id >= total || len(m.Payload) != streamPayload {
				violations++
				continue
			}
			e.tr.add(kReceive, uint64(id), w0, now)
			if seen[id] {
				redeliv++
			} else {
				seen[id] = true
				received++
				if received == warm {
					close(warmDone)
				}
				k := binary.BigEndian.Uint16(m.Payload[8:])
				if int(k) >= streamKeys || m.Key != keys[k] || lastOfKey[k] >= id {
					violations++
				} else {
					lastOfKey[k] = id
				}
				if j := id - warm; j >= 0 {
					due := start.Load() + int64(j/streamBurst)*int64(gridStep)
					r.lat[j] = float64(int64(now.Sub(t0)) - due)
					lastRecv = now
				}
			}
			a0 := time.Now()
			if err := cons.Ack(m); err != nil {
				violations++
			}
			e.tr.add(kAck, uint64(id), a0, time.Now())
		}
	}()

	// The warm-up is paced like the timed phase, so that set-up time is the
	// schedule's, not the host's speed regime's (see calibrate.go).
	failed := 0
	warmStart := time.Now()
	for b := 0; b < streamWarm; b++ {
		time.Sleep(time.Until(warmStart.Add(time.Duration(b) * gridStep)))
		failed += publish(b)
	}
	select {
	case <-warmDone:
	case <-time.After(drainTimeout):
		failed++
	}
	if failed > 0 {
		published.Store(true)
		<-consDone
		return r, fmt.Errorf("stream-paced: warm-up lost or failed messages")
	}

	e.tr.start()
	m := r.begin(t0)
	start.Store(int64(m.t0.Sub(t0)))
	r.late = make([]float64, bursts)
	backlogMax := int64(0)
	for b := 0; b < bursts; b++ {
		due := m.t0.Add(time.Duration(b) * gridStep)
		time.Sleep(time.Until(due))
		r.late[b] = float64(time.Since(due))
		if e.tr != nil {
			// Costs a broker lock per partition: sampled in traced rounds only.
			if n, err := p.Pulsar.Backlog(streamTopic, streamSub); err == nil {
				backlogMax = max(backlogMax, n)
			}
		}
		failed += publish(streamWarm + b)
	}
	published.Store(true)
	<-consDone
	r.end(m)
	// The paced phase ends when the last message is received, not when the
	// generator notices.
	if !lastRecv.IsZero() {
		r.wall = lastRecv.Sub(m.t0)
	}

	r.attempted = total - warm
	if lost := total - received; lost > 0 {
		r.fail(lost, "%d messages never received", lost)
	}
	if failed+violations+redeliv > 0 {
		r.fail(failed+violations+redeliv, "%d publish errors, %d order/key/ack violations, %d duplicates", failed, violations, redeliv)
	}
	backlog, err := p.Pulsar.Backlog(streamTopic, streamSub)
	if err != nil {
		r.fail(1, "backlog: %v", err)
	}
	r.reconcile("Cluster.Backlog at the end", backlog, 0)
	r.layer["pulsar.redelivered"] = float64(redeliv)
	r.layer["pulsar.retained_bytes_per_msg"] = (float64(r.heapEnd) - float64(r.heapStart)) / float64(total-warm)
	if e.tr != nil {
		r.layer["pulsar.backlog_max"] = float64(backlogMax)
	}
	return r, nil
}
