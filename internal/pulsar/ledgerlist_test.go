package pulsar

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/coord"
)

var ledgerListSeeds = [][]ledgerRange{
	nil,
	{{ID: 1, StartSeq: 0}},
	{{ID: 3, StartSeq: 4096}, {ID: 9, StartSeq: 8192}, {ID: 10, StartSeq: 8193}},
	{{ID: 1 << 40, StartSeq: 1 << 50}},
}

func TestLedgerListCodecRoundTrip(t *testing.T) {
	for _, rs := range ledgerListSeeds {
		got, err := decodeLedgers(appendLedgers(nil, rs))
		if err != nil {
			t.Fatalf("decode(%v): %v", rs, err)
		}
		if !reflect.DeepEqual(got, rs) {
			t.Fatalf("round trip: got %v, want %v", got, rs)
		}
	}
}

func TestDecodeLedgersRejectsGarbage(t *testing.T) {
	good := appendLedgers(nil, ledgerListSeeds[2])
	cases := map[string][]byte{
		"empty":           nil,
		"json":            []byte(`[{"id":1,"start_seq":0}]`),
		"version":         append([]byte{0x02}, good[1:]...),
		"truncated":       good[:len(good)-1],
		"trailing":        append(append([]byte(nil), good...), 0),
		"padded count":    {ledgersVersion, 0x81, 0x00, 1, 0},
		"zero id":         appendLedgers(nil, []ledgerRange{{ID: 0, StartSeq: 0}}),
		"id repeats":      appendLedgers(nil, []ledgerRange{{ID: 2, StartSeq: 0}, {ID: 2, StartSeq: 5}}),
		"start repeats":   appendLedgers(nil, []ledgerRange{{ID: 2, StartSeq: 5}, {ID: 3, StartSeq: 5}}),
		"huge count":      {ledgersVersion, 0x7f, 1, 0},
		"seq above int64": append([]byte{ledgersVersion, 1, 1}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
	}
	for name, b := range cases {
		if rs, err := decodeLedgers(b); err == nil {
			t.Errorf("%s: decoded %q as %v, want an error", name, b, rs)
		}
	}
}

// FuzzTopicLedgers: no input panics the decoder, and whatever it accepts is
// canonical — it re-encodes to the identical bytes.
func FuzzTopicLedgers(f *testing.F) {
	for _, rs := range ledgerListSeeds {
		f.Add(appendLedgers(nil, rs))
	}
	f.Add([]byte(`[1,2]`))
	f.Fuzz(func(t *testing.T, b []byte) {
		rs, err := decodeLedgers(b)
		if err != nil {
			return
		}
		if enc := appendLedgers(nil, rs); !bytes.Equal(enc, b) {
			t.Fatalf("accepted %x, which re-encodes to %x (%v)", b, enc, rs)
		}
	})
}

// deletedPrefixTail drives a topic (through prod, read by cons) past two
// ledger rolls with everything acked, so its first two ledgers are deleted,
// then publishes a tail of ten and acks a ragged subset of it: the first
// three, the sixth and the eighth. It returns the tail's first seq and
// checks that the topic retains seqs from the second roll on.
func deletedPrefixTail(t *testing.T, e *env, topic string, prod *Producer, cons *Consumer) int64 {
	t.Helper()
	const burst = 100
	n := 2*topicLedgerEntries + 500
	for first := 0; first < n; first += burst {
		for i := first; i < min(first+burst, n); i++ {
			_, err := prod.Send([]byte(fmt.Sprintf("m%d", i)))
			must(t, err)
		}
		for i := first; i < min(first+burst, n); i++ {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatalf("timed out at message %d", i)
			}
			must(t, cons.Ack(m))
		}
	}
	for i := n; i < n+10; i++ {
		_, err := prod.Send([]byte(fmt.Sprintf("m%d", i)))
		must(t, err)
	}
	for i := 0; i < 10; i++ {
		m, ok := cons.Receive(time.Second)
		if !ok || m.Seq != int64(n+i) {
			t.Fatalf("tail message %d = %+v, %v", i, m, ok)
		}
		if i < 3 || i == 5 || i == 7 {
			must(t, cons.Ack(m))
		}
	}
	if first, ledgers := retainedFirst(t, e.cluster, topic); first != 2*topicLedgerEntries || ledgers != 1 {
		t.Fatalf("before the fault the topic retains %d ledgers from seq %d, want 1 from %d", ledgers, first, 2*topicLedgerEntries)
	}
	return int64(n)
}

// expectTail receives until the topic goes quiet and checks that what
// arrives is exactly the tail's unacked five plus the extra seqs, each once.
func expectTail(t *testing.T, cons *Consumer, tail int64, extra ...int64) {
	t.Helper()
	want := map[int64]bool{}
	for _, off := range []int64{3, 4, 6, 8, 9} {
		want[tail+off] = true
	}
	for _, seq := range extra {
		want[seq] = true
	}
	got := map[int64]bool{}
	for {
		m, ok := cons.Receive(50 * time.Millisecond)
		if !ok {
			break
		}
		if !want[m.Seq] || got[m.Seq] {
			t.Fatalf("received seq %d (%q): acked already, delivered twice, or never published", m.Seq, m.Payload)
		}
		if string(m.Payload) != fmt.Sprintf("m%d", m.Seq) {
			t.Fatalf("seq %d carries %q", m.Seq, m.Payload)
		}
		got[m.Seq] = true
		must(t, cons.Ack(m))
	}
	if len(got) != len(want) {
		t.Fatalf("received %v, want %v", got, want)
	}
}

// TestFailoverWithDeletedPrefix: a survivor taking over a topic whose first
// ledgers are deleted starts it at the oldest retained seq, not 0, continues
// the seqs where the crashed owner stopped, and keeps the exact cursor.
func TestFailoverWithDeletedPrefix(t *testing.T) {
	e := newEnv(t, 2, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducer("t")
		must(t, err)
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		tail := deletedPrefixTail(t, e, "t", prod, cons)
		owner, _, err := e.cluster.ensureOwner("t")
		must(t, err)
		owner.SetDown(true)
		seq, err := prod.Send([]byte(fmt.Sprintf("m%d", tail+10)))
		must(t, err)
		if seq != tail+10 {
			t.Fatalf("first seq after failover = %d, want %d", seq, tail+10)
		}
		if b, _, _ := e.cluster.ensureOwner("t"); b == owner {
			t.Fatal("the crashed broker still owns the topic")
		}
		if first, _ := retainedFirst(t, e.cluster, "t"); first != 2*topicLedgerEntries {
			t.Fatalf("the survivor starts the topic at seq %d, want %d", first, 2*topicLedgerEntries)
		}
		expectTail(t, cons, tail, tail+10)
	})
}

// TestMoveWithDeletedPrefix: the same through a graceful MoveTopic.
func TestMoveWithDeletedPrefix(t *testing.T) {
	e := newEnv(t, 2, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducer("t")
		must(t, err)
		cons, err := e.cluster.Subscribe("t", "s", Shared, Earliest)
		must(t, err)
		tail := deletedPrefixTail(t, e, "t", prod, cons)
		from, _, err := e.cluster.ensureOwner("t")
		must(t, err)
		to := "broker-0"
		if from.ID == to {
			to = "broker-1"
		}
		must(t, e.cluster.MoveTopic("t", to))
		if b, _, err := e.cluster.ensureOwner("t"); err != nil || b.ID != to {
			t.Fatalf("owner after move = %v, %v; want %s", b, err, to)
		}
		if first, _ := retainedFirst(t, e.cluster, "t"); first != 2*topicLedgerEntries {
			t.Fatalf("the new owner starts the topic at seq %d, want %d", first, 2*topicLedgerEntries)
		}
		seq, err := prod.Send([]byte(fmt.Sprintf("m%d", tail+10)))
		must(t, err)
		if seq != tail+10 {
			t.Fatalf("first seq after the move = %d, want %d", seq, tail+10)
		}
		expectTail(t, cons, tail, tail+10)
	})
}

// TestRedeliveryHoldsLedgers: a seq queued for redelivery holds its ledger
// although its subscription's prefix has passed it — the floor is the lower
// of the two — and the ledger goes at the next roll once the redelivery is
// delivered.
func TestRedeliveryHoldsLedgers(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducer("t")
		must(t, err)
		a, err := e.cluster.Subscribe("t", "s", Shared, Earliest)
		must(t, err)
		n := 2*topicLedgerEntries + 10
		for i := 0; i < n; i++ {
			_, err := prod.Send([]byte(fmt.Sprintf("m%d", i)))
			must(t, err)
		}
		m, ok := a.Receive(time.Second)
		if !ok || m.Seq != 0 {
			t.Fatalf("first message = %+v, %v", m, ok)
		}
		a.Close() // everything it held is queued for redelivery
		for i := 0; i < n; i++ {
			must(t, a.Ack(Message{Topic: "t", Seq: int64(i)})) // and then acked
		}
		if first, ledgers := retainedFirst(t, e.cluster, "t"); first != 0 || ledgers != 3 {
			t.Fatalf("with redeliveries queued from seq 0 the topic retains %d ledgers from %d, want 3 from 0", ledgers, first)
		}
		b, err := e.cluster.Subscribe("t", "s", Shared, Earliest)
		must(t, err)
		m, ok = b.Receive(time.Second)
		if !ok || m.Seq != 0 || string(m.Payload) != "m0" {
			t.Fatalf("the redelivery of seq 0 = %+v, %v", m, ok)
		}
		for {
			if _, ok := b.TryReceive(); !ok {
				break
			}
		}
		for i := n; i < 3*topicLedgerEntries+1; i++ { // up to the next roll
			_, err := prod.Send([]byte(fmt.Sprintf("m%d", i)))
			must(t, err)
		}
		if first, ledgers := retainedFirst(t, e.cluster, "t"); first != 2*topicLedgerEntries || ledgers != 2 {
			t.Fatalf("after the redeliveries and a roll the topic retains %d ledgers from %d, want 2 from %d", ledgers, first, 2*topicLedgerEntries)
		}
	})
}

// TestCursorBelowRetainedStart: a durable cursor the owner never loaded can
// lie below the seqs the topic retains once the subscriptions the owner
// knows have acked ledgers away. A takeover resumes it at the topic's oldest
// retained seq, keeping its acks from there on, and it receives everything
// else retained.
func TestCursorBelowRetainedStart(t *testing.T) {
	e := newEnv(t, 2, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducer("t")
		must(t, err)
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		tail := deletedPrefixTail(t, e, "t", prod, cons)
		start := int64(2 * topicLedgerEntries)
		copied := appendCursor(nil, cursorRecord{Mode: Exclusive, AckedPrefix: 0, Acks: []int64{start - 1, start, start + 2}})
		must(t, e.cluster.meta.Create(cursorPath("t", "copy"), copied, coord.Persistent, 0))
		owner, _, err := e.cluster.ensureOwner("t")
		must(t, err)
		owner.SetDown(true)
		late, err := e.cluster.Subscribe("t", "copy", Exclusive, Earliest)
		must(t, err)
		for seq := start + 1; seq < tail+10; seq++ {
			if seq == start+2 {
				continue // acked before the takeover
			}
			m, ok := late.Receive(time.Second)
			if !ok || m.Seq != seq {
				t.Fatalf("resumed cursor: got %+v, %v; want seq %d", m, ok, seq)
			}
		}
		if m, ok := late.TryReceive(); ok {
			t.Fatalf("resumed cursor: extra message seq %d", m.Seq)
		}
		if n, err := e.cluster.Backlog("t", "copy"); err != nil || n != tail+10-start-2 {
			t.Fatalf("backlog of the resumed cursor = %d, %v; want %d", n, err, tail+10-start-2)
		}
	})
}
