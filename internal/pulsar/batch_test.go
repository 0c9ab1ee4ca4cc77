package pulsar

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/obs"
)

// TestSendAsyncFlushesAtMaxBatch: messages stay buffered until the batch
// fills, then commit as one group with one PublishTime.
func TestSendAsyncFlushesAtMaxBatch(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducerOpts("t", ProducerOptions{MaxBatch: 3, FlushInterval: time.Hour})
		must(t, err)
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		must(t, prod.SendAsync("", []byte("a")))
		must(t, prod.SendAsync("", []byte("b")))
		if _, ok := cons.TryReceive(); ok {
			t.Error("message delivered before the batch filled")
		}
		must(t, prod.SendAsync("", []byte("c"))) // fills the batch
		for i, want := range []string{"a", "b", "c"} {
			m, ok := cons.Receive(time.Second)
			if !ok || string(m.Payload) != want || m.Seq != int64(i) {
				t.Errorf("message %d = (%+v, %v), want seq %d %q", i, m, ok, i, want)
			}
		}
	})
}

// TestSendAsyncFlushInterval: a SendAsync arriving after the staleness bound
// flushes even a non-full batch.
func TestSendAsyncFlushInterval(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducerOpts("t", ProducerOptions{MaxBatch: 100, FlushInterval: 5 * time.Millisecond})
		must(t, err)
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		must(t, prod.SendAsync("", []byte("a")))
		e.v.Sleep(10 * time.Millisecond)
		must(t, prod.SendAsync("", []byte("b"))) // stale batch → flush both
		for i, want := range []string{"a", "b"} {
			m, ok := cons.Receive(time.Second)
			if !ok || string(m.Payload) != want {
				t.Errorf("message %d = (%+v, %v), want %q", i, m, ok, want)
			}
		}
	})
}

// TestSendKeyFlushesBufferedFirst: a synchronous send never overtakes
// buffered async messages.
func TestSendKeyFlushesBufferedFirst(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducerOpts("t", ProducerOptions{MaxBatch: 100, FlushInterval: time.Hour})
		must(t, err)
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		must(t, prod.SendAsync("", []byte("async-0")))
		must(t, prod.SendAsync("", []byte("async-1")))
		seq, err := prod.Send([]byte("sync"))
		must(t, err)
		if seq != 2 {
			t.Errorf("sync seq = %d, want 2 (after the buffered pair)", seq)
		}
		for i, want := range []string{"async-0", "async-1", "sync"} {
			m, ok := cons.Receive(time.Second)
			if !ok || string(m.Payload) != want || m.Seq != int64(i) {
				t.Errorf("message %d = (%+v, %v), want seq %d %q", i, m, ok, i, want)
			}
		}
	})
}

// TestBatchedPublishIsMeteredPerMessage: one group commit still bills one
// publish unit per message.
func TestBatchedPublishIsMeteredPerMessage(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducerOpts("t", ProducerOptions{MaxBatch: 4, FlushInterval: time.Hour})
		must(t, err)
		for i := 0; i < 4; i++ {
			must(t, prod.SendAsync("", []byte("x")))
		}
		must(t, prod.Flush())
	})
	if got := e.meter.Units("pulsar", billing.ResMsgPublish); got != 4 {
		t.Fatalf("metered %v publish units, want 4", got)
	}
}

// TestBatchedPartitionedPerKeyRouting: batches split per partition and keyed
// messages keep per-key order within their partition.
func TestBatchedPartitionedPerKeyRouting(t *testing.T) {
	e := newEnv(t, 2, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("pt", 4))
		prod, err := e.cluster.CreateProducerOpts("pt", ProducerOptions{MaxBatch: 64, FlushInterval: time.Hour})
		must(t, err)
		cons, err := e.cluster.Subscribe("pt", "s", KeyShared, Earliest)
		must(t, err)
		const keys = 5
		const perKey = 6
		for j := 0; j < perKey; j++ {
			for k := 0; k < keys; k++ {
				must(t, prod.SendAsync(fmt.Sprintf("key-%d", k), []byte(fmt.Sprintf("%d", j))))
			}
		}
		must(t, prod.Flush())
		last := map[string]int{}
		for i := 0; i < keys*perKey; i++ {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Errorf("timed out at message %d", i)
				return
			}
			var val int
			fmt.Sscanf(string(m.Payload), "%d", &val)
			if prev, seen := last[m.Key]; seen && val <= prev {
				t.Errorf("key %s went %d → %d", m.Key, prev, val)
			}
			last[m.Key] = val
			must(t, cons.Ack(m))
		}
		if len(last) != keys {
			t.Errorf("saw %d keys, want %d", len(last), keys)
		}
	})
}

// TestSyncSendIsAGroupCommitOfOne: a synchronous send and a one-message
// async flush reach the bookies through the same group commit. On twin
// clusters they assign the same seq, write the same ledger entry, deliver
// the same message, trace one "ledger.append" and observe a fan-in of 1.
func TestSyncSendIsAGroupCommitOfOne(t *testing.T) {
	type outcome struct {
		seq    int64
		entry  []byte
		msg    Message
		ledger []string // the trace's ledger span names
		fanIn  obs.HistogramSnapshot
	}
	run := func(send func(p *Producer, tc obs.TraceCtx) (int64, error)) outcome {
		e := newEnv(t, 1, 3)
		reg := obs.New(e.v)
		e.cluster.SetObs(reg)
		e.ledgers.SetObs(reg)
		var o outcome
		e.v.Run(func() {
			must(t, e.cluster.CreateTopic("t", 0))
			prod, err := e.cluster.CreateProducerOpts("t", ProducerOptions{MaxBatch: 16, FlushInterval: time.Hour})
			must(t, err)
			cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
			must(t, err)
			root := reg.Tracer().Start(obs.TraceCtx{}, "test.root")
			o.seq, err = send(prod, root.Ctx())
			must(t, err)
			root.End()
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatal("message not delivered")
			}
			if m.Trace.Trace != root.TraceID() {
				t.Errorf("delivered message carries trace %d, want %d", m.Trace.Trace, root.TraceID())
			}
			m.Trace = obs.TraceCtx{} // a sync send adds a pulsar.publish span between
			o.msg = m
			b, _, err := e.cluster.ensureOwner("t")
			must(t, err)
			b.mu.RLock()
			ts := b.topics["t"]
			ts.mu.Lock()
			o.entry, err = ts.writer.Reader().Read(o.seq)
			ts.mu.Unlock()
			b.mu.RUnlock()
			must(t, err)
			for _, sd := range reg.Tracer().Spans() {
				if sd.TraceID == root.TraceID() && strings.HasPrefix(sd.Name, "ledger.") {
					o.ledger = append(o.ledger, sd.Name)
				}
			}
			for _, h := range reg.Snapshot().Histograms {
				if h.Name == "ledger.append.batch.fanin" {
					o.fanIn = h.HistogramSnapshot
				}
			}
		})
		return o
	}
	sent := run(func(p *Producer, tc obs.TraceCtx) (int64, error) {
		return p.SendKeyTrace("", []byte("one"), tc)
	})
	flushed := run(func(p *Producer, tc obs.TraceCtx) (int64, error) {
		if err := p.SendAsyncTrace("", []byte("one"), tc); err != nil {
			return 0, err
		}
		return 0, p.Flush() // the first message of a fresh topic is seq 0
	})

	if sent.seq != flushed.seq {
		t.Errorf("seq: sent %d, flushed %d", sent.seq, flushed.seq)
	}
	if !bytes.Equal(sent.entry, flushed.entry) {
		t.Errorf("ledger entry: sent %x, flushed %x", sent.entry, flushed.entry)
	}
	if !reflect.DeepEqual(sent.msg, flushed.msg) {
		t.Errorf("delivered: sent %+v, flushed %+v", sent.msg, flushed.msg)
	}
	for _, o := range []outcome{sent, flushed} {
		if !slices.Equal(o.ledger, []string{"ledger.append"}) {
			t.Errorf("ledger spans %v, want one ledger.append", o.ledger)
		}
		if o.fanIn.Count != 1 || o.fanIn.Sum != 1 {
			t.Errorf("fan-in: %d commits of total %d entries, want 1 of 1", o.fanIn.Count, o.fanIn.Sum)
		}
	}
}
