package pulsar

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/ledger"
)

// windowOf returns the owning broker's message window for a concrete topic.
func windowOf(t *testing.T, c *Cluster, topic string) msgWindow {
	t.Helper()
	b, _, err := c.ensureOwner(topic)
	must(t, err)
	b.mu.RLock()
	defer b.mu.RUnlock()
	ts, err := b.topicLocked(topic)
	must(t, err)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.win
}

// retainedFirst returns the owning broker's oldest retained seq and its
// ledger count for a concrete topic.
func retainedFirst(t *testing.T, c *Cluster, topic string) (first int64, ledgers int) {
	t.Helper()
	b, _, err := c.ensureOwner(topic)
	must(t, err)
	b.mu.RLock()
	defer b.mu.RUnlock()
	ts, err := b.topicLocked(topic)
	must(t, err)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.first(), len(ts.ranges)
}

// earliestAfterTrim consumes and acks 10 000 keyed messages across a broker
// failover (so the history is ledgers of the first owner, closed, and of the
// survivor), then subscribes a second Earliest subscription and checks what
// it and AckedMessages see: every message from the oldest retained seq on,
// in order, with its key and payload. With hold, a subscription that never
// acks exists from the start and keeps every ledger, so that seq is 0.
// Without it, the ledgers the consumer acked past are deleted and the topic
// retains only the survivor's last ledger or two.
func earliestAfterTrim(t *testing.T, hold bool) {
	const total, burst = 10000, 100
	e := newEnv(t, 2, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducer("t")
		must(t, err)
		if hold {
			holder, err := e.cluster.Subscribe("t", "hold", Exclusive, Earliest)
			must(t, err)
			holder.Close() // the subscription stays, acked prefix 0
		}
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		key := func(i int) string { return fmt.Sprintf("k%d", i%13) }
		payload := func(i int) []byte { return []byte(fmt.Sprintf("payload-%05d", i)) }
		for first := 0; first < total; first += burst {
			if first == total/2 {
				owner, _, err := e.cluster.ensureOwner("t")
				must(t, err)
				owner.SetDown(true) // the next publish elects the survivor
			}
			for i := first; i < first+burst; i++ {
				_, err := prod.SendKey(key(i), payload(i))
				must(t, err)
			}
			for i := first; i < first+burst; i++ {
				m, ok := cons.Receive(time.Second)
				if !ok || m.Seq != int64(i) {
					t.Fatalf("first pass: message %d = %+v, %v", i, m, ok)
				}
				must(t, cons.Ack(m))
			}
		}
		w := windowOf(t, e.cluster, "t")
		if !hold && (w.end != total || w.base < total-2*burst || len(w.ring) > 4*burst) {
			t.Fatalf("after %d acked messages the window is [%d,%d) in %d slots; want the last burst or two", total, w.base, w.end, len(w.ring))
		}
		first, ledgers := retainedFirst(t, e.cluster, "t")
		if hold && first != 0 || !hold && (first == 0 || ledgers > 2 || total-first > 2*topicLedgerEntries) {
			t.Fatalf("the topic retains %d ledgers from seq %d (hold %v)", ledgers, first, hold)
		}

		late, err := e.cluster.Subscribe("t", "late", Exclusive, Earliest)
		must(t, err)
		for i := int(first); i < total; i++ {
			m, ok := late.Receive(time.Second)
			if !ok {
				t.Fatalf("late subscription: timed out at message %d", i)
			}
			if m.Seq != int64(i) || m.Key != key(i) || !bytes.Equal(m.Payload, payload(i)) || m.Topic != "t" {
				t.Fatalf("late subscription: message %d = seq %d key %q payload %q topic %q", i, m.Seq, m.Key, m.Payload, m.Topic)
			}
		}
		if m, ok := late.TryReceive(); ok {
			t.Fatalf("late subscription: extra message %+v", m)
		}

		acked, err := e.cluster.AckedMessages("t", "s")
		must(t, err)
		if len(acked) != total-int(first) {
			t.Fatalf("AckedMessages returned %d payloads, want %d", len(acked), total-int(first))
		}
		for i, p := range acked {
			if !bytes.Equal(p, payload(int(first)+i)) {
				t.Fatalf("AckedMessages[%d] = %q, want %q", i, p, payload(int(first)+i))
			}
		}
		// The late subscription has acked nothing, bar two out of order: that
		// is all it reports, read from below the window.
		a, b := int(first)+7, int(first)+4200%(total-int(first))
		must(t, late.Ack(Message{Topic: "t", Seq: int64(a)}))
		must(t, late.Ack(Message{Topic: "t", Seq: int64(b)}))
		acked, err = e.cluster.AckedMessages("t", "late")
		must(t, err)
		if len(acked) != 2 || !bytes.Equal(acked[0], payload(a)) || !bytes.Equal(acked[1], payload(b)) {
			t.Fatalf("AckedMessages(late) = %q, want payloads %d and %d", acked, a, b)
		}
	})
}

// TestEarliestAfterTrimReplaysEverything: a consumer that keeps up leaves the
// broker holding a small ring, not the topic — and while another
// subscription has acked nothing, every ledger stays: a late Earliest
// subscription receives the whole topic from seq 0, read back from the
// ledgers of both owners, and AckedMessages returns every published payload
// byte for byte.
func TestEarliestAfterTrimReplaysEverything(t *testing.T) {
	earliestAfterTrim(t, true)
}

// TestEarliestAfterTrimStartsAtRetained: with every subscription acked past
// them, the topic's older ledgers are deleted, and a late Earliest
// subscription starts at the oldest seq the topic retains — its first
// ledger left — and receives everything from there.
func TestEarliestAfterTrimStartsAtRetained(t *testing.T) {
	earliestAfterTrim(t, false)
}

// TestRedeliveryBelowPrefixStillDelivered: a seq queued for redelivery when
// its consumer detached, then acked — and passed by the prefix, and by the
// window — before anyone attached again, is still delivered to the next
// consumer, as it was when the broker kept every message (there is nothing
// left to ack, so it is not recorded as pending).
func TestRedeliveryBelowPrefixStillDelivered(t *testing.T) {
	const first, more = 40, 60
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducer("t")
		must(t, err)
		a, err := e.cluster.Subscribe("t", "s", Shared, Earliest)
		must(t, err)
		payload := func(i int) []byte { return []byte(fmt.Sprintf("m%d", i)) }
		var got []Message
		for i := 0; i < first; i++ {
			_, err := prod.Send(payload(i))
			must(t, err)
			m, ok := a.Receive(time.Second)
			if !ok {
				t.Fatalf("timed out at message %d", i)
			}
			got = append(got, m)
		}
		a.Close() // all 40 are queued for redelivery; nobody is attached
		for _, m := range got {
			must(t, a.Ack(m)) // the acks arrive all the same
		}
		for i := first; i < first+more; i++ {
			_, err := prod.Send(payload(i))
			must(t, err)
		}
		if w := windowOf(t, e.cluster, "t"); w.base != first {
			t.Fatalf("window base = %d, want %d: the ring should have filled and let the acked prefix go", w.base, first)
		}
		b, err := e.cluster.Subscribe("t", "s", Shared, Earliest)
		must(t, err)
		for i := 0; i < first+more; i++ {
			m, ok := b.Receive(time.Second)
			if !ok {
				t.Fatalf("second consumer: timed out at message %d", i)
			}
			if m.Seq != int64(i) || !bytes.Equal(m.Payload, payload(i)) {
				t.Fatalf("second consumer: message %d = seq %d payload %q", i, m.Seq, m.Payload)
			}
		}
		if n, err := e.cluster.Backlog("t", "s"); err != nil || n != more {
			t.Fatalf("backlog = %d, %v; want %d (the redelivered seqs were already acked)", n, err, more)
		}
	})
}

// TestPartialBatchFailureKeepsSeqAtPosition: a seq is a ledger position. A
// batch whose group commit fails part-way leaves its first entries committed,
// so they are published under the seqs those positions carry (the producer is
// still told the flush failed, and its re-send duplicates them). The window,
// a read-back from the open ledger, AckedMessages and the next owner's replay
// must all name the same message under every seq.
func TestPartialBatchFailureKeepsSeqAtPosition(t *testing.T) {
	e := newEnv(t, 2, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducerOpts("t", ProducerOptions{MaxBatch: 64})
		must(t, err)
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		var seen [][]byte // what the live consumer got, by seq
		drain := func() {
			for {
				m, ok := cons.Receive(10 * time.Millisecond)
				if !ok {
					return
				}
				if m.Seq != int64(len(seen)) {
					t.Fatalf("live consumer: got seq %d, want %d", m.Seq, len(seen))
				}
				seen = append(seen, m.Payload)
				must(t, cons.Ack(m))
			}
		}
		for i := 0; i < 3; i++ {
			_, err := prod.Send([]byte(fmt.Sprintf("sync-%d", i)))
			must(t, err)
		}
		drain()
		// Entries 3.. of the ledger stripe over bookies (0,1), (1,2), (2,0)…:
		// with bookie-2 down and no spare, entry 3 commits and entry 4 cannot.
		bk, _ := e.ledgers.Bookie("bookie-2")
		bk.SetDown(true)
		batch := func() error {
			for i := 0; i < 4; i++ {
				must(t, prod.SendAsync("", []byte(fmt.Sprintf("batch-%d", i))))
			}
			return prod.Flush()
		}
		if err := batch(); !errors.Is(err, ledger.ErrQuorumLost) {
			t.Fatalf("flush with a bookie down: %v, want ErrQuorumLost", err)
		}
		bk.SetDown(false)
		must(t, batch())
		drain()
		if len(seen) != 8 || string(seen[3]) != "batch-0" || string(seen[4]) != "batch-0" {
			t.Fatalf("live consumer saw %q; want 3 sync, the committed batch-0, then the re-sent batch", seen)
		}
		for i := 0; i < 100; i++ { // let the window move on past all of it
			_, err := prod.Send([]byte(fmt.Sprintf("tail-%d", i)))
			must(t, err)
			drain()
		}
		if w := windowOf(t, e.cluster, "t"); w.base < 8 {
			t.Fatalf("window base = %d, want it past the batches", w.base)
		}
		check := func(who string) {
			t.Helper()
			late, err := e.cluster.Subscribe("t", who, Exclusive, Earliest)
			must(t, err)
			for i, want := range seen {
				m, ok := late.Receive(time.Second)
				if !ok || m.Seq != int64(i) || !bytes.Equal(m.Payload, want) {
					t.Fatalf("%s: message %d = seq %d %q (%v), want %q", who, i, m.Seq, m.Payload, ok, want)
				}
			}
			if m, ok := late.TryReceive(); ok {
				t.Fatalf("%s: extra message %+v", who, m)
			}
			acked, err := e.cluster.AckedMessages("t", "s")
			must(t, err)
			if len(acked) != len(seen) {
				t.Fatalf("%s: AckedMessages returned %d payloads, want %d", who, len(acked), len(seen))
			}
			for i, want := range seen {
				if !bytes.Equal(acked[i], want) {
					t.Fatalf("%s: AckedMessages[%d] = %q, want %q", who, i, acked[i], want)
				}
			}
		}
		check("late")
		owner, _, err := e.cluster.ensureOwner("t")
		must(t, err)
		owner.SetDown(true)
		check("later") // the survivor's replay agrees
	})
}

// TestFailedReadBackIsReportedAndResumes: a backlog that lies below the
// window and cannot be read is an error the subscriber sees, not a silent
// empty inbox, and the next attach carries on from what was delivered.
func TestFailedReadBackIsReportedAndResumes(t *testing.T) {
	const total = 60
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducer("t")
		must(t, err)
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		for i := 0; i < total; i++ {
			_, err := prod.Send([]byte(fmt.Sprintf("m%d", i)))
			must(t, err)
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatalf("timed out at message %d", i)
			}
			must(t, cons.Ack(m))
		}
		if w := windowOf(t, e.cluster, "t"); w.base == 0 {
			t.Fatal("window base = 0: nothing to read back")
		}
		// Entry 0 is on bookies 0 and 1, entry 1 on 1 and 2: with those two
		// down the read-back delivers seq 0 and fails on seq 1.
		for _, id := range []string{"bookie-1", "bookie-2"} {
			bk, _ := e.ledgers.Bookie(id)
			bk.SetDown(true)
		}
		if _, err := e.cluster.Subscribe("t", "late", Exclusive, Earliest); !errors.Is(err, ledger.ErrBookieDown) {
			t.Fatalf("Subscribe over an unreadable backlog: %v, want ErrBookieDown", err)
		}
		if _, err := e.cluster.RedeliverUnacked("t", "late"); err != nil {
			t.Fatalf("RedeliverUnacked with nobody attached: %v", err)
		}
		for _, id := range []string{"bookie-1", "bookie-2"} {
			bk, _ := e.ledgers.Bookie(id)
			bk.SetDown(false)
		}
		// The failed Subscribe left no consumer behind (Exclusive would refuse
		// this one), and seq 0, delivered to it, is queued again.
		late, err := e.cluster.Subscribe("t", "late", Exclusive, Earliest)
		must(t, err)
		for i := 0; i < total; i++ {
			m, ok := late.Receive(time.Second)
			if !ok || m.Seq != int64(i) || string(m.Payload) != fmt.Sprintf("m%d", i) {
				t.Fatalf("late subscription: message %d = seq %d %q (%v)", i, m.Seq, m.Payload, ok)
			}
		}
		if m, ok := late.TryReceive(); ok {
			t.Fatalf("late subscription: extra message %+v", m)
		}
	})
}

// TestWindowRingsBoundedAtScale: 200 000 keyed 256 B messages through
// publish → Receive → Ack on 4 partitions, in bursts of 100 — the shape of
// the root package's TestTopicMemoryBoundedByBacklog, which gates the bytes —
// leave every partition's ring at 1024 slots or fewer: one that stopped
// letting go would hold some 50 000.
func TestWindowRingsBoundedAtScale(t *testing.T) {
	const burst = 100
	total := 200000
	if testing.Short() {
		total = 20000
	}
	e := newEnv(t, 2, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 4))
		prod, err := e.cluster.CreateProducerOpts("t", ProducerOptions{MaxBatch: 16})
		must(t, err)
		cons, err := e.cluster.Subscribe("t", "s", Shared, Earliest)
		must(t, err)
		payload := make([]byte, 256)
		for first := 0; first < total; first += burst {
			for i := first; i < first+burst; i++ {
				must(t, prod.SendAsync(fmt.Sprintf("k%04d", i*7%1024), payload))
			}
			must(t, prod.Flush())
			for i := 0; i < burst; i++ {
				m, ok := cons.Receive(time.Second)
				if !ok {
					t.Fatalf("received %d of %d messages", first+i, total)
				}
				must(t, cons.Ack(m))
			}
		}
		var published int64
		for p := 0; p < 4; p++ {
			w := windowOf(t, e.cluster, fmt.Sprintf("t-partition-%d", p))
			published += w.end
			if len(w.ring) > 1024 {
				t.Errorf("partition %d: window [%d,%d) in %d slots, want <= 1024", p, w.base, w.end, len(w.ring))
			}
		}
		if published != int64(total) {
			t.Fatalf("partitions hold %d messages, want %d", published, total)
		}
	})
}
