package pulsar

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestFailoverExactCursor is the broker-failover regression pinned by the
// chaos plane: after the owning broker crashes and a survivor takes the
// topic over, no acked message is redelivered (including out-of-order acks
// beyond the contiguous prefix) and no unacked message is lost.
func TestFailoverExactCursor(t *testing.T) {
	e := newEnv(t, 2, 3)
	reg := obs.New(e.v)
	e.cluster.SetObs(reg)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, _ := e.cluster.CreateProducer("t")
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		for i := 0; i < 10; i++ {
			_, err := prod.Send([]byte(fmt.Sprintf("m%d", i)))
			must(t, err)
		}
		// Receive everything, ack a ragged subset: contiguous prefix 0..2
		// plus out-of-order 5 and 7.
		acked := map[int64]bool{0: true, 1: true, 2: true, 5: true, 7: true}
		for i := 0; i < 10; i++ {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatal("timeout on initial receive")
			}
			if acked[m.Seq] {
				must(t, cons.Ack(m))
			}
		}

		owner, _, err := e.cluster.ensureOwner("t")
		must(t, err)
		owner.SetDown(true)

		// Publishing forces re-election; the new owner replays the ledgers
		// and restores the cursor, ragged acks included.
		for i := 0; i < 2; i++ {
			_, err := prod.Send([]byte(fmt.Sprintf("post%d", i)))
			must(t, err)
		}
		got := map[int64]int{}
		for {
			m, ok := cons.Receive(50 * time.Millisecond)
			if !ok {
				break
			}
			got[m.Seq]++
			must(t, cons.Ack(m))
		}
		for seq := range acked {
			if got[seq] > 0 {
				t.Errorf("acked seq %d redelivered %d times after failover", seq, got[seq])
			}
		}
		for _, seq := range []int64{3, 4, 6, 8, 9, 10, 11} {
			if got[seq] == 0 {
				t.Errorf("unacked seq %d lost in failover", seq)
			}
		}
	})
	if n := reg.CounterValue("pulsar.recoveries"); n < 1 {
		t.Errorf("pulsar.recoveries = %d, want >= 1", n)
	}
}

// TestBrokerDropNextSurfacesError: an injected drop fails the publish before
// anything is appended, so the client sees the error (nothing acked is ever
// lost) and the next publish succeeds.
func TestBrokerDropNextSurfacesError(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, _ := e.cluster.CreateProducer("t")
		_, err := prod.Send([]byte("a"))
		must(t, err)
		owner, _, err := e.cluster.ensureOwner("t")
		must(t, err)
		owner.DropNext(1)
		if _, err := prod.Send([]byte("b")); !errors.Is(err, ErrPublishDropped) {
			t.Fatalf("err = %v, want ErrPublishDropped", err)
		}
		seq, err := prod.Send([]byte("c"))
		must(t, err)
		if seq != 1 {
			t.Fatalf("seq after drop = %d, want 1 (dropped publish assigned no seq)", seq)
		}
	})
}

// TestBrokerSetSlowAddsLatency: a straggler broker stretches publish latency
// by exactly the injected amount on the virtual clock.
func TestBrokerSetSlowAddsLatency(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, _ := e.cluster.CreateProducer("t")
		_, err := prod.Send([]byte("warm"))
		must(t, err)
		owner, _, err := e.cluster.ensureOwner("t")
		must(t, err)

		base := e.v.Now()
		_, err = prod.Send([]byte("fast"))
		must(t, err)
		fast := e.v.Now().Sub(base)

		owner.SetSlow(3 * time.Millisecond)
		base = e.v.Now()
		_, err = prod.Send([]byte("slow"))
		must(t, err)
		slow := e.v.Now().Sub(base)
		if slow != fast+3*time.Millisecond {
			t.Fatalf("slow publish took %v, want %v + 3ms", slow, fast)
		}
		owner.SetSlow(0)
	})
}

// TestGeoReplicationDropsAfterRetries: with the destination hard-down, the
// replicator's push consumer retries each message, then dead-letters it on
// the source (acking it there) instead of wedging the stream.
func TestGeoReplicationDropsAfterRetries(t *testing.T) {
	e := newEnv(t, 1, 3)
	west := newSecondCluster(e, 1, 3)
	reg := obs.New(e.v)
	e.cluster.SetObs(reg)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		must(t, west.CreateTopic("t", 0))
		wb, _ := west.Broker("west-broker-0")
		wb.SetDown(true) // only broker in the region: every dst publish fails

		repl, err := StartReplicator(e.cluster, west, "t", "t")
		must(t, err)
		prod, _ := e.cluster.CreateProducer("t")
		for i := 0; i < 3; i++ {
			_, err := prod.Send([]byte(fmt.Sprintf("m%d", i)))
			must(t, err)
		}
		for i := 0; i < 1000 && repl.DeadLettered() < 3; i++ {
			e.v.Sleep(50 * time.Millisecond)
		}
		repl.Stop()
		if repl.DeadLettered() != 3 {
			t.Fatalf("dead-lettered = %d, want 3", repl.DeadLettered())
		}
		if repl.Replicated() != 0 {
			t.Fatalf("replicated = %d, want 0", repl.Replicated())
		}
		// The source's dead-letter topic holds the three, in order.
		dlq, err := e.cluster.Subscribe("t-geo-replicator-DLQ", "check", Exclusive, Earliest)
		must(t, err)
		for i := 0; i < 3; i++ {
			if m, ok := dlq.TryReceive(); !ok || string(m.Payload) != fmt.Sprintf("m%d", i) {
				t.Fatalf("dead letter %d = %q (ok %v), want m%d", i, m.Payload, ok, i)
			}
		}
		// The dead letters acked the source: a fresh replicator against a
		// healthy destination has nothing to mirror.
		wb.SetDown(false)
		repl2, err := StartReplicator(e.cluster, west, "t", "t")
		must(t, err)
		e.v.Sleep(50 * time.Millisecond)
		repl2.Stop()
		if repl2.Replicated() != 0 {
			t.Fatalf("post-dead-letter replicator mirrored %d, want 0", repl2.Replicated())
		}
	})
	if n := reg.CounterValue("pulsar.dead_lettered"); n != 3 {
		t.Errorf("pulsar.dead_lettered = %d, want 3", n)
	}
}

// TestReplicatorStopMidRetryKeepsMessage: a Stop that lands during a retry
// backoff must not take the "retries exhausted" arm — the message stays
// unacked on the source, so the next replicator mirrors it.
func TestReplicatorStopMidRetryKeepsMessage(t *testing.T) {
	e := newEnv(t, 1, 3)
	west := newSecondCluster(e, 1, 3)
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
		e.v.Sleep(2 * time.Millisecond) // first publish failed; first backoff (5ms) in progress
		repl.Stop()
		if repl.DeadLettered() != 0 || repl.Replicated() != 0 {
			t.Fatalf("stopped mid-retry: dropped = %d, replicated = %d, want 0 and 0", repl.DeadLettered(), repl.Replicated())
		}

		wb.SetDown(false)
		repl2, err := StartReplicator(e.cluster, west, "t", "t")
		must(t, err)
		cons, err := west.Subscribe("t", "check", Exclusive, Earliest)
		must(t, err)
		if m, ok := cons.Receive(time.Second); !ok || string(m.Payload) != "m0" {
			t.Fatalf("destination got %q, %v; want the message the first replicator was still retrying", m.Payload, ok)
		}
		repl2.Stop()
		if repl2.Replicated() != 1 || repl2.DeadLettered() != 0 {
			t.Fatalf("second replicator: replicated = %d, dropped = %d, want 1 and 0", repl2.Replicated(), repl2.DeadLettered())
		}
	})
}
