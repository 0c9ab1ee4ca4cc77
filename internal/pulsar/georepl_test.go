package pulsar

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/ledger"
	"repro/internal/simclock"
)

// newSecondCluster builds an independent cluster (own brokers, bookies and
// metadata) on the same virtual clock — a second "region".
func newSecondCluster(e *env, brokers, bookies int) *Cluster {
	meta := coord.NewStore(e.v)
	ls := ledger.NewSystem(e.v, meta)
	for i := 0; i < bookies; i++ {
		ls.AddBookie(ledger.NewBookie(fmt.Sprintf("west-bookie-%d", i)))
	}
	cl := NewCluster(e.v, meta, ls, nil, ClusterConfig{Tenant: "west"})
	for i := 0; i < brokers; i++ {
		cl.AddBroker(fmt.Sprintf("west-broker-%d", i))
	}
	return cl
}

func TestGeoReplicationMirrorsMessages(t *testing.T) {
	e := newEnv(t, 2, 3)
	west := newSecondCluster(e, 2, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("events", 0))
		must(t, west.CreateTopic("events", 0))

		repl, err := StartReplicator(e.cluster, west, "events", "events")
		must(t, err)

		prod, _ := e.cluster.CreateProducer("events")
		for i := 0; i < 20; i++ {
			_, err := prod.SendKey(fmt.Sprintf("k%d", i%3), []byte(fmt.Sprintf("m%d", i)))
			must(t, err)
		}
		for i := 0; i < 1000 && repl.Replicated() < 20; i++ {
			e.v.Sleep(5 * time.Millisecond)
		}
		repl.Stop()
		if repl.Replicated() != 20 {
			t.Fatalf("replicated = %d, want 20", repl.Replicated())
		}

		// The mirror preserves content and per-key order.
		cons, err := west.Subscribe("events", "check", Exclusive, Earliest)
		must(t, err)
		lastPerKey := map[string]int{}
		for i := 0; i < 20; i++ {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatalf("mirror missing message %d", i)
			}
			var n int
			fmt.Sscanf(string(m.Payload), "m%d", &n)
			if last, seen := lastPerKey[m.Key]; seen && n <= last {
				t.Fatalf("key %s out of order in mirror: m%d after m%d", m.Key, n, last)
			}
			lastPerKey[m.Key] = n
			must(t, cons.Ack(m))
		}
	})
}

func TestGeoReplicationResumesFromDurableCursor(t *testing.T) {
	e := newEnv(t, 1, 3)
	west := newSecondCluster(e, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		must(t, west.CreateTopic("t", 0))
		prod, _ := e.cluster.CreateProducer("t")

		// First replicator run mirrors 5 messages, then stops.
		repl, err := StartReplicator(e.cluster, west, "t", "t")
		must(t, err)
		for i := 0; i < 5; i++ {
			_, err := prod.Send([]byte(fmt.Sprintf("a%d", i)))
			must(t, err)
		}
		for i := 0; i < 1000 && repl.Replicated() < 5; i++ {
			e.v.Sleep(5 * time.Millisecond)
		}
		repl.Stop()

		// Messages published while no replicator runs.
		for i := 0; i < 5; i++ {
			_, err := prod.Send([]byte(fmt.Sprintf("b%d", i)))
			must(t, err)
		}
		// A restarted replicator resumes at the durable cursor: only the
		// new messages flow; nothing duplicates.
		repl2, err := StartReplicator(e.cluster, west, "t", "t")
		must(t, err)
		for i := 0; i < 1000 && repl2.Replicated() < 5; i++ {
			e.v.Sleep(5 * time.Millisecond)
		}
		repl2.Stop()
		if repl2.Replicated() != 5 {
			t.Fatalf("resumed replicator mirrored %d, want 5", repl2.Replicated())
		}
		cons, err := west.Subscribe("t", "check", Exclusive, Earliest)
		must(t, err)
		var got []string
		for {
			m, ok := cons.TryReceive()
			if !ok {
				break
			}
			got = append(got, string(m.Payload))
		}
		if len(got) != 10 {
			t.Fatalf("mirror has %d messages, want 10 (no loss, no duplication): %v", len(got), got)
		}
	})
}

// TestReplicatorMirrorsOneSendAfterPublish: the replicator is woken by the
// source's delivery, so a message reaches the destination one destination
// send after its publish, not at the next poll.
func TestReplicatorMirrorsOneSendAfterPublish(t *testing.T) {
	e := newEnv(t, 1, 3)
	west := newSecondCluster(e, 1, 3)
	wb, _ := west.Broker("west-broker-0")
	wb.SetSlow(time.Millisecond) // a destination send takes 1 ms, before any lock
	var send time.Duration
	var sent, got time.Time
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		must(t, west.CreateTopic("t", 0))
		must(t, west.CreateTopic("probe", 0))
		probe, err := west.CreateProducer("probe")
		must(t, err)
		for i := 0; i < 2; i++ { // the second send finds the topic owned
			start := e.v.Now()
			_, err := probe.Send([]byte("p"))
			must(t, err)
			send = e.v.Now().Sub(start)
		}
		check, err := west.Subscribe("t", "check", Exclusive, Latest)
		must(t, err)
		repl, err := StartReplicator(e.cluster, west, "t", "t")
		must(t, err)
		prod, err := e.cluster.CreateProducer("t")
		must(t, err)
		e.v.Sleep(10*time.Millisecond + 333*time.Microsecond)
		_, err = prod.Send([]byte("m"))
		must(t, err)
		sent = e.v.Now()
		if _, ok := check.Receive(time.Hour); !ok {
			t.Error("the mirror never arrived")
		}
		got = e.v.Now()
		repl.Stop()
	})
	if send <= 0 || got.Sub(sent) != send {
		t.Fatalf("mirrored %v after the publish, want one destination send (%v)", got.Sub(sent), send)
	}
}

// TestReplicatorIdleLeavesNoGoroutine: a replicator holds a goroutine only
// while it has messages to mirror, so the run ends at the last mirror's
// instant with no Stop.
func TestReplicatorIdleLeavesNoGoroutine(t *testing.T) {
	e := newEnv(t, 1, 3)
	west := newSecondCluster(e, 1, 3)
	wb, _ := west.Broker("west-broker-0")
	wb.SetSlow(time.Millisecond) // a destination send takes 1 ms, before any lock
	var repl *Replicator
	var last time.Time
	end := e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		must(t, west.CreateTopic("t", 0))
		must(t, west.SubscribeFunc("t", "watch", func(Message) error {
			last = e.v.Now()
			return nil
		}))
		var err error
		repl, err = StartReplicator(e.cluster, west, "t", "t")
		must(t, err)
		prod, _ := e.cluster.CreateProducer("t")
		for i := 0; i < 3; i++ {
			_, err := prod.Send([]byte("x"))
			must(t, err)
		}
	})
	// Three 1 ms destination sends, one after another.
	if want := simclock.Epoch.Add(3 * time.Millisecond); repl.Replicated() != 3 || !last.Equal(want) || !end.Equal(last) {
		t.Fatalf("replicated %d, last mirror at %v, run ended at %v; want 3, both at %v",
			repl.Replicated(), last.Sub(simclock.Epoch), end.Sub(simclock.Epoch), want.Sub(simclock.Epoch))
	}
}

// TestReplicatorStopWaitsForRunningMirror: Stop during a retry backoff
// returns once that mirror call has, at the end of the backoff.
func TestReplicatorStopWaitsForRunningMirror(t *testing.T) {
	e := newEnv(t, 1, 3)
	west := newSecondCluster(e, 1, 3)
	var published, stopped time.Time
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		must(t, west.CreateTopic("t", 0))
		wb, _ := west.Broker("west-broker-0")
		wb.SetDown(true)
		repl, err := StartReplicator(e.cluster, west, "t", "t")
		must(t, err)
		prod, _ := e.cluster.CreateProducer("t")
		_, err = prod.Send([]byte("m0"))
		must(t, err)
		published = e.v.Now()
		e.v.Sleep(2 * time.Millisecond) // first publish failed; first backoff in progress
		repl.Stop()
		stopped = e.v.Now()
	})
	if d := stopped.Sub(published); d != replRetryBase {
		t.Fatalf("Stop returned %v after the publish, want the first backoff's end (%v)", d, replRetryBase)
	}
}
