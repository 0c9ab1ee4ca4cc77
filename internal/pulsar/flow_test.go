package pulsar

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// publishN sends n messages "m<i>" for i in [from, from+n) under key(i).
func publishN(t *testing.T, prod *Producer, from, n int, key func(int) string) {
	t.Helper()
	for i := from; i < from+n; i++ {
		_, err := prod.SendKey(key(i), []byte("m"+strconv.Itoa(i)))
		must(t, err)
	}
}

// idOf is the i of a message publishN sent.
func idOf(t *testing.T, m Message) int {
	t.Helper()
	id, err := strconv.Atoi(strings.TrimPrefix(string(m.Payload), "m"))
	must(t, err)
	return id
}

// receiveAll receives until the subscription stays quiet for 50 ms, acks
// every message, and returns how many times each id arrived and the ids in
// first-arrival order.
func receiveAll(t *testing.T, cons *Consumer) (times map[int]int, order []int) {
	t.Helper()
	times = map[int]int{}
	for {
		m, ok := cons.Receive(50 * time.Millisecond)
		if !ok {
			return times, order
		}
		id := idOf(t, m)
		if times[id]++; times[id] == 1 {
			order = append(order, id)
		}
		must(t, cons.Ack(m))
	}
}

// wantInOrder fails unless order is exactly 0..n-1.
func wantInOrder(t *testing.T, what string, order []int, n int) {
	t.Helper()
	if len(order) != n {
		t.Fatalf("%s: received %d distinct messages, want %d", what, len(order), n)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("%s: message %d arrived at position %d: one was skipped or overtaken", what, id, i)
		}
	}
}

func noKey(int) string { return "" }

// TestSlowConsumerDoesNotHoard: on a Shared subscription a consumer that
// stops receiving keeps a queue's worth, not its round-robin share: its peer
// is handed everything the idle one has no room for, and the rest when the
// idle one closes.
func TestSlowConsumerDoesNotHoard(t *testing.T) {
	const total = 10000
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducer("t")
		must(t, err)
		idle, err := e.cluster.Subscribe("t", "s", Shared, Earliest)
		must(t, err)
		busy, err := e.cluster.Subscribe("t", "s", Shared, Earliest)
		must(t, err)
		publishN(t, prod, 0, total, noKey)

		times, order := receiveAll(t, busy)
		if len(order) < total-receiverQueue || len(order) == total {
			t.Fatalf("the busy consumer received %d of %d with its peer idle, want all but a queue's worth (%d)", len(order), total, receiverQueue)
		}
		held := total - len(order)
		if n := idle.reg.inbox.len(); n != held {
			t.Fatalf("the idle consumer holds %d messages, the busy one is missing %d", n, held)
		}
		idle.Close()
		more, late := receiveAll(t, busy)
		if len(late) != held {
			t.Fatalf("after the idle consumer closed the busy one received %d more, want %d", len(late), held)
		}
		for id, n := range more {
			times[id] += n
		}
		for i := 0; i < total; i++ {
			if times[i] != 1 {
				t.Fatalf("message %d arrived %d times, want once", i, times[i])
			}
		}
		if n, err := e.cluster.Backlog("t", "s"); err != nil || n != 0 {
			t.Fatalf("backlog = %d, %v; want 0", n, err)
		}
	})
}

// TestFlowResumesWhereDispatchStopped: a dispatch round that ends because the
// consumer's queue is full leaves the cursor, the pending set and the
// redelivery queue at exactly what was delivered, and the round the consumer
// starts once it has drained carries on from there — every message once and
// in order, in every subscription mode, across a redelivery request and
// across a broker crash (at least once, none skipped).
func TestFlowResumesWhereDispatchStopped(t *testing.T) {
	const total = 3*receiverQueue + 100
	for _, mode := range []SubMode{Exclusive, Failover, Shared, KeyShared} {
		t.Run(fmt.Sprint("mode-", mode), func(t *testing.T) {
			e := newEnv(t, 1, 3)
			reg := obs.New(e.v)
			e.cluster.SetObs(reg)
			e.v.Run(func() {
				must(t, e.cluster.CreateTopic("t", 0))
				prod, err := e.cluster.CreateProducer("t")
				must(t, err)
				cons, err := e.cluster.Subscribe("t", "s", mode, Earliest)
				must(t, err)
				publishN(t, prod, 0, total, func(i int) string { return fmt.Sprintf("k%d", i%7) })
				if n := cons.reg.inbox.len(); n != receiverQueue {
					t.Fatalf("the consumer holds %d messages of %d published, want %d", n, total, receiverQueue)
				}
				times, order := receiveAll(t, cons)
				wantInOrder(t, "drain", order, total)
				for id, n := range times {
					if n != 1 {
						t.Fatalf("message %d arrived %d times", id, n)
					}
				}
				if n, err := e.cluster.Backlog("t", "s"); err != nil || n != 0 {
					t.Fatalf("backlog = %d, %v; want 0", n, err)
				}
			})
			// Every publish past the first queue's worth ended its round on the
			// full queue, and so did each refill but the last.
			if n := reg.CounterValue("pulsar.dispatch.blocked"); n < total-receiverQueue {
				t.Fatalf("pulsar.dispatch.blocked = %d, want >= %d", n, total-receiverQueue)
			}
		})
	}

	// KeyShared with two consumers: the message at the head goes to the
	// consumer its key picks and to nobody else, so a full queue there holds
	// up the other consumer's messages behind it — order first.
	t.Run("key-shared-head-of-line", func(t *testing.T) {
		e := newEnv(t, 1, 3)
		e.v.Run(func() {
			must(t, e.cluster.CreateTopic("t", 0))
			prod, err := e.cluster.CreateProducer("t")
			must(t, err)
			c0, err := e.cluster.Subscribe("t", "s", KeyShared, Earliest)
			must(t, err)
			c1, err := e.cluster.Subscribe("t", "s", KeyShared, Earliest)
			must(t, err)
			var k0, k1 string // keys dispatch hands to c0 and to c1
			for i := 0; k0 == "" || k1 == ""; i++ {
				if k := fmt.Sprintf("key-%d", i); fnv1a(k)%2 == 0 {
					k0 = k
				} else {
					k1 = k
				}
			}
			const first, behind = receiverQueue + 400, 10
			publishN(t, prod, 0, first, func(int) string { return k0 })
			publishN(t, prod, first, behind, func(int) string { return k1 })
			if m, ok := c1.TryReceive(); ok {
				t.Fatalf("c1 received %q from behind the message c0 has no room for", m.Payload)
			}
			_, order := receiveAll(t, c0)
			wantInOrder(t, "c0", order, first)
			_, order = receiveAll(t, c1)
			if len(order) != behind || order[0] != first || order[behind-1] != first+behind-1 {
				t.Fatalf("c1 received %v, want %d..%d", order, first, first+behind-1)
			}
		})
	})

	// A redelivery request with the queue full: the whole pending set goes to
	// the redelivery queue and stays there until the consumer has room, then
	// comes ahead of the messages never dispatched.
	t.Run("redeliver-into-full-queue", func(t *testing.T) {
		const undispatched = 500
		e := newEnv(t, 1, 3)
		e.v.Run(func() {
			must(t, e.cluster.CreateTopic("t", 0))
			prod, err := e.cluster.CreateProducer("t")
			must(t, err)
			cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
			must(t, err)
			publishN(t, prod, 0, receiverQueue+undispatched, noKey)
			n, err := e.cluster.RedeliverUnacked("t", "s")
			if err != nil || n != receiverQueue {
				t.Fatalf("RedeliverUnacked = %d, %v; want the %d delivered", n, err, receiverQueue)
			}
			var got []int
			for {
				m, ok := cons.Receive(50 * time.Millisecond)
				if !ok {
					break
				}
				got = append(got, idOf(t, m))
			}
			// 0..1023 as first delivered, 0..1023 redelivered, then the rest.
			if len(got) != 2*receiverQueue+undispatched {
				t.Fatalf("received %d messages, want %d", len(got), 2*receiverQueue+undispatched)
			}
			for i, id := range got {
				want := i
				if i >= receiverQueue {
					want = i - receiverQueue
				}
				if id != want {
					t.Fatalf("position %d holds message %d, want %d", i, id, want)
				}
			}
		})
	})

	// The owner crashes with the consumer's queue full and two queues' worth
	// not yet dispatched. The survivor starts from the durable cursor with
	// nobody attached; the consumer re-attaches from its flow path and is
	// handed everything unacked, so every message arrives and first arrivals
	// are in order.
	t.Run("broker-crash-with-full-queue", func(t *testing.T) {
		e := newEnv(t, 2, 3)
		e.v.Run(func() {
			must(t, e.cluster.CreateTopic("t", 0))
			prod, err := e.cluster.CreateProducer("t")
			must(t, err)
			cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
			must(t, err)
			publishN(t, prod, 0, total, noKey)
			owner, _, err := e.cluster.ensureOwner("t")
			must(t, err)
			owner.SetDown(true)
			publishN(t, prod, total, 1, noKey) // elects the survivor
			_, order := receiveAll(t, cons)
			wantInOrder(t, "across the crash", order, total+1)
			if n, err := e.cluster.Backlog("t", "s"); err != nil || n != 0 {
				t.Fatalf("backlog = %d, %v; want 0", n, err)
			}
		})
	})
}

// TestLateEarliestReadsBackAQueueAtATime: a late Earliest subscriber on a long
// topic starts at the oldest seq the topic retains — the ledgers the first
// subscription acked past are deleted — and its attach reads back what its
// queue has room for, not the retained ledgers. Each read holds the
// partition's lock for ReadLatency, so that is how long a publish issued at
// the moment of the attach waits: a queue's worth of reads and the one that
// found the queue full, for the attach and again for the publish's own
// round. Reading everything retained would take several queues' worth.
func TestLateEarliestReadsBackAQueueAtATime(t *testing.T) {
	const burst, readLatency = 100, time.Millisecond
	// Past a multiple of topicLedgerEntries by more than two queues: that is
	// what the topic retains once its consumer has acked everything.
	total := 52000
	if testing.Short() {
		total = 11000
	}
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducer("t")
		must(t, err)
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		for first := 0; first < total; first += burst {
			publishN(t, prod, first, burst, noKey)
			for i := 0; i < burst; i++ {
				m, ok := cons.Receive(time.Second)
				if !ok {
					t.Fatalf("timed out at message %d", first+i)
				}
				must(t, cons.Ack(m))
			}
		}
		if w := windowOf(t, e.cluster, "t"); w.base < int64(total-4*burst) {
			t.Fatalf("window base = %d after %d acked messages: nothing to read back", w.base, total)
		}
		first, _ := retainedFirst(t, e.cluster, "t")
		if first == 0 || int64(total)-first <= 2*receiverQueue {
			t.Fatalf("the topic retains seqs from %d of %d: want a deleted prefix and several queues' worth left", first, total)
		}

		e.ledgers.ReadLatency = readLatency
		start := e.v.Now()
		late, err := e.cluster.Subscribe("t", "late", Exclusive, Earliest)
		must(t, err)
		publishN(t, prod, total, 1, noKey)
		waited := e.v.Now().Sub(start)
		if limit := (receiverQueue + 2) * readLatency; waited > limit {
			t.Fatalf("a publish issued as the late subscriber attached completed after %v, want <= %v (what the topic retains is %v)", waited, limit, time.Duration(int64(total)-first)*readLatency)
		}
		e.ledgers.ReadLatency = 0

		for i := int(first); i <= total; i++ {
			m, ok := late.Receive(time.Second)
			if !ok || m.Seq != int64(i) || idOf(t, m) != i {
				t.Fatalf("late subscription: message %d = seq %d %q (%v)", i, m.Seq, m.Payload, ok)
			}
		}
		if m, ok := late.TryReceive(); ok {
			t.Fatalf("late subscription: extra message %+v", m)
		}
	})
}

// TestClosedConsumerIsClosed: Close hands the consumer's queued messages to
// the survivors and keeps none; a closed consumer returns nothing, and its
// Receive does not wait out the timeout to say so.
func TestClosedConsumerIsClosed(t *testing.T) {
	const total = 10
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducer("t")
		must(t, err)
		a, err := e.cluster.Subscribe("t", "s", Shared, Earliest)
		must(t, err)
		b, err := e.cluster.Subscribe("t", "s", Shared, Earliest)
		must(t, err)
		publishN(t, prod, 0, total, noKey)
		if n := a.reg.inbox.len(); n != total/2 {
			t.Fatalf("consumer a holds %d of %d messages, want half", n, total)
		}
		a.Close()
		if n := a.reg.inbox.len(); n != 0 {
			t.Fatalf("a closed consumer still holds %d messages", n)
		}
		if m, ok := a.TryReceive(); ok {
			t.Fatalf("a closed consumer handed out %q", m.Payload)
		}
		before := e.v.Now()
		if m, ok := a.Receive(time.Hour); ok {
			t.Fatalf("a closed consumer handed out %q", m.Payload)
		}
		if waited := e.v.Now().Sub(before); waited != 0 {
			t.Fatalf("Receive on a closed consumer took %v, want to return at once", waited)
		}
		times, _ := receiveAll(t, b)
		for i := 0; i < total; i++ {
			if times[i] != 1 {
				t.Fatalf("the survivor received message %d %d times, want once", i, times[i])
			}
		}
	})
}
