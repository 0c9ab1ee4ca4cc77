package pulsar

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
)

// TestCursorCodecRoundTrip: random (mode, prefix, ascending acks) records
// survive encode → decode unchanged, and appendCursor really appends.
func TestCursorCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 2000; i++ {
		c := cursorRecord{Mode: SubMode(rng.Intn(4)), AckedPrefix: rng.Int63n(1 << uint(1+rng.Intn(40)))}
		seq := c.AckedPrefix
		for n := rng.Intn(50); n > 0; n-- {
			seq += 1 + rng.Int63n(1<<uint(rng.Intn(20)))
			c.Acks = append(c.Acks, seq)
		}
		enc := appendCursor([]byte("head"), c)
		if !bytes.HasPrefix(enc, []byte("head")) {
			t.Fatalf("appendCursor overwrote its prefix: %q", enc)
		}
		got, err := decodeCursor(enc[4:])
		if err != nil {
			t.Fatalf("decode(%+v): %v", c, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("round trip = %+v, want %+v", got, c)
		}
	}
	// The extremes of the seq range.
	edge := cursorRecord{Mode: KeyShared, AckedPrefix: math.MaxInt64 - 2, Acks: []int64{math.MaxInt64 - 1, math.MaxInt64}}
	if got, err := decodeCursor(appendCursor(nil, edge)); err != nil || !reflect.DeepEqual(got, edge) {
		t.Fatalf("edge round trip = %+v, %v", got, err)
	}
}

func TestDecodeCursorRejectsGarbage(t *testing.T) {
	good := appendCursor(nil, cursorRecord{Mode: Shared, AckedPrefix: 300, Acks: []int64{302, 310}})
	bad := map[string][]byte{
		"empty":             nil,
		"unknown version":   append([]byte{0x02}, good[1:]...),
		"json record":       []byte(`{"mode":1,"acked_prefix":3}`),
		"version only":      good[:1],
		"cut in the prefix": good[:3],
		"missing last ack":  good[:len(good)-1],
		"trailing byte":     append(append([]byte{}, good...), 0),
		"unknown mode":      {cursorVersion, 9, 0, 0},
		"zero delta":        {cursorVersion, 1, 5, 2, 1, 0},
		"padded varint":     {cursorVersion, 1, 0x85, 0x00, 0},
		"prefix overflow":   append([]byte{cursorVersion, 1}, append(bytes.Repeat([]byte{0xff}, 9), 0x01, 0)...),
		"ack overflow":      append(appendCursor(nil, cursorRecord{AckedPrefix: math.MaxInt64})[:11], 1, 1),
		"count over length": {cursorVersion, 1, 0, 200, 1},
	}
	for name, b := range bad {
		if c, err := decodeCursor(b); err == nil {
			t.Errorf("%s: decode of %v succeeded: %+v", name, b, c)
		}
	}
	if _, err := decodeCursor(good); err != nil {
		t.Fatalf("control record rejected: %v", err)
	}
}

// FuzzDecodeCursor: no input panics the decoder, and whatever it accepts is
// canonical — it re-encodes to the identical bytes.
func FuzzDecodeCursor(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(appendCursor(nil, cursorRecord{}))
	f.Add(appendCursor(nil, cursorRecord{Mode: KeyShared, AckedPrefix: 1 << 40, Acks: []int64{1<<40 + 1, 1<<40 + 500, 1 << 50}}))
	f.Add([]byte{cursorVersion, 1, 0x85, 0x00, 0})
	f.Add([]byte(`{"mode":1,"acked_prefix":3}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := decodeCursor(b)
		if err != nil {
			return
		}
		if enc := appendCursor(nil, c); !bytes.Equal(enc, b) {
			t.Fatalf("accepted %x, which re-encodes to %x (%+v)", b, enc, c)
		}
		prev := c.AckedPrefix
		for _, seq := range c.Acks {
			if seq <= prev {
				t.Fatalf("accepted non-increasing acks: %+v", c)
			}
			prev = seq
		}
	})
}

// cursorNode reads a subscription's durable record and its store version.
func cursorNode(t *testing.T, e *env, topic, sub string) ([]byte, int64) {
	t.Helper()
	raw, st, err := e.cluster.meta.Get(cursorPath(topic, sub))
	must(t, err)
	return raw, st.Version
}

// receiveN receives n messages and returns them by seq.
func receiveN(t *testing.T, cons *Consumer, n int) map[int64]Message {
	t.Helper()
	got := map[int64]Message{}
	for len(got) < n {
		m, ok := cons.Receive(time.Second)
		if !ok {
			t.Fatalf("timed out after %d of %d messages", len(got), n)
		}
		got[m.Seq] = m
	}
	return got
}

// TestAckWritesTheCursorOnce is the guard that persistence is neither
// deferred nor skipped: every effective ack — in order, out of order, or a
// repeat of an out-of-order one — moves the cursor node's version by exactly
// one before Ack returns, and the node always holds the full current state.
// A repeated out-of-order ack changes neither the backlog nor the record.
func TestAckWritesTheCursorOnce(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, _ := e.cluster.CreateProducer("t")
		cons, err := e.cluster.Subscribe("t", "s", Shared, Earliest)
		must(t, err)
		if raw, v := cursorNode(t, e, "t", "s"); v != 0 || !bytes.Equal(raw, appendCursor(nil, cursorRecord{Mode: Shared})) {
			t.Fatalf("cursor node after subscribe = %x at version %d, want the empty record at version 0", raw, v)
		}
		for i := 0; i < 8; i++ {
			_, err := prod.Send([]byte{byte(i)})
			must(t, err)
		}
		msgs := receiveN(t, cons, 8)
		steps := []struct {
			seq     int64
			prefix  int64
			acks    []int64
			backlog int64
		}{
			{seq: 0, prefix: 1, backlog: 7},
			{seq: 6, prefix: 1, acks: []int64{6}, backlog: 6},
			{seq: 3, prefix: 1, acks: []int64{3, 6}, backlog: 5},
			{seq: 6, prefix: 1, acks: []int64{3, 6}, backlog: 5}, // repeat: nothing changes
			{seq: 2, prefix: 1, acks: []int64{2, 3, 6}, backlog: 4},
			{seq: 1, prefix: 4, backlog: 3, acks: []int64{6}},
		}
		for i, st := range steps {
			_, before := cursorNode(t, e, "t", "s")
			must(t, cons.Ack(msgs[st.seq]))
			raw, after := cursorNode(t, e, "t", "s")
			if after != before+1 {
				t.Fatalf("step %d: ack of %d moved the cursor node from version %d to %d, want +1", i, st.seq, before, after)
			}
			cur, err := decodeCursor(raw)
			must(t, err)
			if want := (cursorRecord{Mode: Shared, AckedPrefix: st.prefix, Acks: st.acks}); !reflect.DeepEqual(cur, want) {
				t.Fatalf("step %d: record = %+v, want %+v", i, cur, want)
			}
			if n, err := e.cluster.Backlog("t", "s"); err != nil || n != st.backlog {
				t.Fatalf("step %d: backlog = %d, %v; want %d", i, n, err, st.backlog)
			}
		}
		// An ack below the prefix is not effective: no write.
		_, before := cursorNode(t, e, "t", "s")
		must(t, cons.Ack(msgs[2]))
		if _, after := cursorNode(t, e, "t", "s"); after != before {
			t.Fatalf("ack below the prefix wrote the cursor (version %d → %d)", before, after)
		}
	})
}

// TestAckReportsFailedCursorWrite: when the coordination service refuses the
// cursor write, Ack says so instead of reporting a durability it does not
// have — and keeps saying so on a retry, even though the in-memory prefix has
// already moved past the message. Once the store accepts writes again, one
// ack makes the whole in-memory state durable.
func TestAckReportsFailedCursorWrite(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, _ := e.cluster.CreateProducer("t")
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		for i := 0; i < 3; i++ {
			_, err := prod.Send([]byte{byte(i)})
			must(t, err)
		}
		msgs := receiveN(t, cons, 3)
		must(t, cons.Ack(msgs[0]))

		path := cursorPath("t", "s")
		must(t, e.cluster.meta.Delete(path, coord.AnyVersion))
		for attempt := 0; attempt < 2; attempt++ {
			if err := cons.Ack(msgs[1]); !errors.Is(err, coord.ErrNoNode) {
				t.Fatalf("attempt %d: Ack with the cursor node gone = %v, want coord.ErrNoNode", attempt, err)
			}
		}
		must(t, e.cluster.meta.Create(path, nil, coord.Persistent, 0))
		must(t, cons.Ack(msgs[1]))
		raw, _ := cursorNode(t, e, "t", "s")
		if cur, err := decodeCursor(raw); err != nil || cur.AckedPrefix != 2 {
			t.Fatalf("record after the store recovered = %+v, %v; want prefix 2", cur, err)
		}
	})
}

// TestSubscribeReportsFailedCursorCreate: a subscription whose cursor node
// cannot be created does not exist — Subscribe fails, and succeeds once the
// store allows it.
func TestSubscribeReportsFailedCursorCreate(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		// An ephemeral node cannot have children: the cursor create must fail.
		must(t, e.cluster.meta.Delete("/pulsar/subs/t", coord.AnyVersion))
		sess := e.cluster.meta.NewSession()
		must(t, e.cluster.meta.Create("/pulsar/subs/t", nil, coord.Ephemeral, sess))
		if _, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest); !errors.Is(err, coord.ErrEphChildren) {
			t.Fatalf("Subscribe with an unwritable cursor path = %v, want coord.ErrEphChildren", err)
		}
		e.cluster.meta.CloseSession(sess)
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		cons.Close()
		if _, v := cursorNode(t, e, "t", "s"); v != 0 {
			t.Fatalf("cursor node version after the successful subscribe = %d, want 0", v)
		}
	})
}

// TestUnreadableCursorFailsTakeover: a cursor record the new owner cannot
// decode fails the takeover loudly. Coming up without the subscription would
// let its consumers re-subscribe from their initial position — redelivering
// everything (Earliest) or skipping the backlog (Latest).
func TestUnreadableCursorFailsTakeover(t *testing.T) {
	e := newEnv(t, 2, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, _ := e.cluster.CreateProducer("t")
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		_, err = prod.Send([]byte("m0"))
		must(t, err)
		must(t, cons.Ack(receiveN(t, cons, 1)[0]))
		good, _ := cursorNode(t, e, "t", "s")

		path := cursorPath("t", "s")
		_, err = e.cluster.meta.Set(path, []byte(`{"mode":0,"acked_prefix":1}`), coord.AnyVersion)
		must(t, err)
		owner, _, err := e.cluster.ensureOwner("t")
		must(t, err)
		owner.SetDown(true)
		ledgersBefore, err := e.cluster.meta.Children("/ledgers")
		must(t, err)
		listBefore, err := e.cluster.topicLedgers("t")
		must(t, err)
		// A refused takeover leaves nothing behind, however often it is tried.
		for attempt := 0; attempt < 3; attempt++ {
			if _, _, err := e.cluster.ensureOwner("t"); err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("takeover with a corrupt cursor record = %v, want an error naming %s", err, path)
			}
		}
		ledgersAfter, err := e.cluster.meta.Children("/ledgers")
		must(t, err)
		listAfter, err := e.cluster.topicLedgers("t")
		must(t, err)
		if !slices.Equal(ledgersAfter, ledgersBefore) || !slices.Equal(listAfter, listBefore) {
			t.Fatalf("failed takeovers changed the ledgers: /ledgers %v -> %v, topic list %v -> %v", ledgersBefore, ledgersAfter, listBefore, listAfter)
		}
		if _, err := e.cluster.Subscriptions("t"); err == nil {
			t.Fatal("Subscriptions listed a topic whose cursor record is corrupt")
		}

		// With the record repaired the takeover goes through, cursor intact.
		_, err = e.cluster.meta.Set(path, good, coord.AnyVersion)
		must(t, err)
		_, err = prod.Send([]byte("m1"))
		must(t, err)
		if m, ok := cons.Receive(time.Second); !ok || m.Seq != 1 {
			t.Fatalf("after repair received %+v, %v; want seq 1 only", m, ok)
		}
	})
}

// TestFailoverAfterOutOfOrderAcks: acks arriving in no particular order
// (descending, interleaved, repeated) while a second consumer sits on its
// share, then a broker crash — the new owner redelivers exactly the unacked
// set, no more, no less.
func TestFailoverAfterOutOfOrderAcks(t *testing.T) {
	e := newEnv(t, 2, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, _ := e.cluster.CreateProducer("t")
		a, err := e.cluster.Subscribe("t", "s", Shared, Earliest)
		must(t, err)
		b, err := e.cluster.Subscribe("t", "s", Shared, Earliest)
		must(t, err)
		const total = 40
		for i := 0; i < total; i++ {
			_, err := prod.Send([]byte(fmt.Sprintf("m%d", i)))
			must(t, err)
		}
		mine := receiveN(t, a, total/2) // a holds one half, b never acks the other
		acked := map[int64]bool{}
		var order []int64
		for seq := range mine {
			order = append(order, seq)
		}
		// Descending, every third one skipped, then a few repeats.
		sort.Slice(order, func(i, j int) bool { return order[i] > order[j] })
		for i, seq := range order {
			if i%3 == 2 {
				continue
			}
			must(t, a.Ack(mine[seq]))
			acked[seq] = true
		}
		must(t, a.Ack(mine[order[0]]))
		must(t, a.Ack(mine[order[4]]))

		owner, _, err := e.cluster.ensureOwner("t")
		must(t, err)
		owner.SetDown(true)
		b.Close()
		_, err = prod.Send([]byte("post")) // forces the re-election
		must(t, err)

		got := map[int64]int{}
		for {
			m, ok := a.Receive(50 * time.Millisecond)
			if !ok {
				break
			}
			got[m.Seq]++
			must(t, a.Ack(m))
		}
		for seq := int64(0); seq <= total; seq++ {
			switch {
			case acked[seq] && got[seq] != 0:
				t.Errorf("acked seq %d redelivered %d times after failover", seq, got[seq])
			case !acked[seq] && got[seq] != 1:
				t.Errorf("unacked seq %d delivered %d times after failover, want 1", seq, got[seq])
			}
		}
		if n, err := e.cluster.Backlog("t", "s"); err != nil || n != 0 {
			t.Fatalf("backlog after draining = %d, %v", n, err)
		}
	})
}
