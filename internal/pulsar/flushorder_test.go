package pulsar

import (
	"fmt"
	"testing"
	"time"
)

// TestBatchFlushOrderDeterministic: a flush commits its partitions' groups
// in a fixed order, each partition's first buffered message first. With a
// ledger append latency every group commits at its own instant, so two
// identical runs must record the same (partition, seq, publish time) for
// every message; a flush that walked a map would commit the groups in a
// different order each run.
func TestBatchFlushOrderDeterministic(t *testing.T) {
	const partitions, maxBatch, flushes = 4, 16, 20
	type record struct {
		topic string
		seq   int64
		at    time.Duration // publish time after the run's start
	}
	run := func() []record {
		e := newEnvCfg(t, 2, 3, ClusterConfig{BatchFlushInterval: time.Hour})
		e.ledgers.AppendLatency = time.Millisecond
		var out []record
		e.v.Run(func() {
			start := e.v.Now()
			must(t, e.cluster.CreateTopic("pt", partitions))
			prod, err := e.cluster.CreateProducerOpts("pt", ProducerOptions{MaxBatch: maxBatch})
			must(t, err)
			cons, err := e.cluster.Subscribe("pt", "s", Shared, Earliest)
			must(t, err)
			defer cons.Close()
			payload := []byte("payload")
			for i := 0; i < flushes*maxBatch; i++ { // every maxBatch-th send flushes
				must(t, prod.SendAsync(fmt.Sprintf("user-%d", i*7919%997), payload))
			}
			for len(out) < flushes*maxBatch {
				m, ok := cons.Receive(time.Second)
				if !ok {
					t.Fatalf("received %d of %d messages", len(out), flushes*maxBatch)
				}
				out = append(out, record{m.Topic, m.Seq, m.PublishTime.Sub(start)})
				must(t, cons.Ack(m))
			}
		})
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("message %d: first run %+v, second run %+v", i, a[i], b[i])
		}
	}
	// The latency is what makes the order visible: one flush spans
	// several instants, one per partition group.
	if first, last := a[0].at, a[maxBatch-1].at; last == first {
		t.Fatalf("one flush published every group at %v: the order is not observable", first)
	}
}
