package pulsar

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var errRefused = errors.New("handler refused the message")

// TestPushRetryRedeliversAfterDelay: a handler that fails each message's
// first call runs exactly twice per message, the second call exactly
// redeliverDelay after the first, and every message ends acked.
func TestPushRetryRedeliversAfterDelay(t *testing.T) {
	e := newEnv(t, 1, 3)
	calls := map[string][]time.Time{} // one push consumer: fn runs serially
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		must(t, e.cluster.SubscribeFunc("t", "s", func(m Message) error {
			id := string(m.Payload)
			calls[id] = append(calls[id], e.v.Now())
			if len(calls[id]) == 1 {
				return errRefused
			}
			return nil
		}))
		prod, err := e.cluster.CreateProducer("t")
		must(t, err)
		for i := 0; i < 5; i++ {
			_, err := prod.SendKey(fmt.Sprintf("k%d", i%2), []byte(fmt.Sprintf("m%d", i)))
			must(t, err)
		}
	})
	for i := 0; i < 5; i++ {
		at := calls[fmt.Sprintf("m%d", i)]
		if len(at) != 2 {
			t.Fatalf("m%d handled %d times, want 2", i, len(at))
		}
		if d := at[1].Sub(at[0]); d != redeliverDelay {
			t.Errorf("m%d's second call came %v after its first, want %v", i, d, redeliverDelay)
		}
	}
	e.v.Run(func() {
		if n, err := e.cluster.Backlog("t", "s"); err != nil || n != 0 {
			t.Errorf("backlog = %d (%v), want 0: every message acked", n, err)
		}
	})
}

// TestPushDeadLettersAfterMaxDeliveries: a handler that always fails runs
// exactly maxDeliveries times per message; the topic "<topic>-<sub>-DLQ"
// then holds every message in order with its key and payload, the source
// backlog is 0, and the source's first ledger, which the dead letters acked
// past, is deleted.
func TestPushDeadLettersAfterMaxDeliveries(t *testing.T) {
	e := newEnv(t, 1, 3)
	n := topicLedgerEntries + 10
	calls := map[string]int{} // one push consumer: fn runs serially
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		must(t, e.cluster.SubscribeFunc("t", "s", func(m Message) error {
			calls[string(m.Payload)]++
			return errRefused
		}))
		prod, err := e.cluster.CreateProducer("t")
		must(t, err)
		for i := 0; i < n; i++ {
			_, err := prod.SendKey(fmt.Sprintf("k%d", i%7), []byte(fmt.Sprintf("m%d", i)))
			must(t, err)
		}
	})
	for i := 0; i < n; i++ {
		if c := calls[fmt.Sprintf("m%d", i)]; c != maxDeliveries {
			t.Fatalf("m%d handled %d times, want %d", i, c, maxDeliveries)
		}
	}
	e.v.Run(func() {
		if b, err := e.cluster.Backlog("t", "s"); err != nil || b != 0 {
			t.Errorf("backlog = %d (%v), want 0: every message dead-lettered and acked", b, err)
		}
		if first, _ := retainedFirst(t, e.cluster, "t"); first != topicLedgerEntries {
			t.Errorf("the topic retains from seq %d, want %d: its first ledger deleted", first, topicLedgerEntries)
		}
		dlq, err := e.cluster.Subscribe("t-s-DLQ", "check", Exclusive, Earliest)
		must(t, err)
		for i := 0; i < n; i++ {
			m, ok := dlq.Receive(time.Second)
			if want := fmt.Sprintf("m%d", i); !ok || string(m.Payload) != want || m.Key != fmt.Sprintf("k%d", i%7) {
				t.Fatalf("dead letter %d = %q key %q (ok %v), want %s key k%d", i, m.Payload, m.Key, ok, want, i%7)
			}
			must(t, dlq.Ack(m))
		}
		if m, ok := dlq.TryReceive(); ok {
			t.Errorf("extra dead letter %q", m.Payload)
		}
	})
}

// TestPropertyPushAtLeastOnce: two push consumers share a subscription whose
// handler fails each call at random. Every message is either acked after at
// most maxDeliveries calls or dead-lettered after exactly that many: none
// vanishes, and none is handled again after its ack.
func TestPropertyPushAtLeastOnce(t *testing.T) {
	const n = 40
	var retried, deadLettered int // across seeds: both arms were taken
	f := func(seed int64) bool {
		e := newEnv(t, 1, 3)
		rng := rand.New(rand.NewSource(seed))
		var mu sync.Mutex
		calls := map[string]int{}
		acked := map[string]bool{}
		ok := true
		handle := func(m Message) error {
			mu.Lock()
			defer mu.Unlock()
			id := string(m.Payload)
			if acked[id] {
				t.Errorf("seed %d: %s handled again after its ack", seed, id)
				ok = false
			}
			calls[id]++
			if rng.Intn(2) == 0 {
				acked[id] = true
				return nil
			}
			return errRefused
		}
		e.v.Run(func() {
			must(t, e.cluster.CreateTopic("q", 0))
			must(t, e.cluster.SubscribeFunc("q", "s", handle))
			must(t, e.cluster.SubscribeFunc("q", "s", handle))
			prod, err := e.cluster.CreateProducer("q")
			must(t, err)
			for i := 0; i < n; i++ {
				_, err := prod.Send([]byte(fmt.Sprint(i)))
				must(t, err)
			}
		})
		inDLQ := map[string]bool{}
		e.v.Run(func() {
			if b, err := e.cluster.Backlog("q", "s"); err != nil || b != 0 {
				t.Errorf("seed %d: backlog = %d (%v), want 0", seed, b, err)
				ok = false
			}
			dlq, err := e.cluster.Subscribe("q-s-DLQ", "check", Exclusive, Earliest)
			if errors.Is(err, ErrNoTopic) {
				return // nothing was dead-lettered, so nothing created the topic
			}
			must(t, err)
			for {
				m, got := dlq.TryReceive()
				if !got {
					break
				}
				inDLQ[string(m.Payload)] = true
			}
		})
		for i := 0; i < n; i++ {
			id := fmt.Sprint(i)
			switch c := calls[id]; {
			case acked[id] && !inDLQ[id] && c >= 1 && c <= maxDeliveries:
				if c > 1 {
					retried++
				}
			case !acked[id] && inDLQ[id] && c == maxDeliveries:
				deadLettered++
			default:
				t.Errorf("seed %d: message %s: %d calls, acked %v, dead-lettered %v", seed, id, c, acked[id], inDLQ[id])
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
	if retried == 0 || deadLettered == 0 {
		t.Errorf("%d messages acked after a retry and %d dead-lettered, want some of each", retried, deadLettered)
	}
}

// TestReplicatorRidesOutOutage: a destination down for two redelivery
// delays costs the replicator two failed calls on its first message, not a
// message: once it is back, every message is mirrored in source order.
func TestReplicatorRidesOutOutage(t *testing.T) {
	e := newEnv(t, 1, 3)
	west := newSecondCluster(e, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		must(t, west.CreateTopic("t", 0))
		wb, _ := west.Broker("west-broker-0")
		wb.SetDown(true)
		repl, err := StartReplicator(e.cluster, west, "t", "t")
		must(t, err)
		prod, err := e.cluster.CreateProducer("t")
		must(t, err)
		for i := 0; i < 10; i++ {
			_, err := prod.SendKey(fmt.Sprintf("k%d", i%3), []byte(fmt.Sprintf("m%d", i)))
			must(t, err)
		}
		e.v.Sleep(2*redeliverDelay - time.Millisecond) // two failed calls, the third still ahead
		wb.SetDown(false)
		check, err := west.Subscribe("t", "check", Exclusive, Earliest)
		must(t, err)
		for i := 0; i < 10; i++ {
			if m, ok := check.Receive(time.Minute); !ok || string(m.Payload) != fmt.Sprintf("m%d", i) {
				t.Fatalf("mirror message %d = %q (ok %v), want m%d", i, m.Payload, ok, i)
			}
		}
		repl.Stop()
		if repl.Replicated() != 10 || repl.DeadLettered() != 0 {
			t.Fatalf("replicated %d, dead-lettered %d; want 10 and 0", repl.Replicated(), repl.DeadLettered())
		}
	})
}
