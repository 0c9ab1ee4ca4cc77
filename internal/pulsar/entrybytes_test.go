package pulsar

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ledger"
)

// TestLedgerOwnedBytesMatchOracle holds the entry bytes a topic's current
// ledger copies and owns to a map oracle of what was sent. One producer
// drives a seeded random stream into a plain topic: sync sends and
// SendAsync+Flush, keyed and unkeyed, payloads from 0 B to more than one
// chunk, written from one source buffer the test overwrites after every call.
// A live consumer acks most of it as it comes and the rest later, so ledgers
// roll and are deleted, and it keeps some of what it received. Broker drops
// and bookie drops fail sends along the way; a failed send is sent again,
// which encodes it afresh while the failed attempt's entry may still sit on a
// bookie. At the end the owner crashes, and a late Earliest subscriber reads
// the retained seqs back from the ledgers the survivor recovers: they, and
// every payload the live consumer kept, ledger deleted or not, must equal the
// oracle byte for byte.
func TestLedgerOwnedBytesMatchOracle(t *testing.T) {
	const ops = 9000
	const ledgerChunk = 128 << 10 // a ledger's entry log is chunks of this many bytes
	e := newEnvCfg(t, 2, 3, ClusterConfig{BatchFlushInterval: time.Hour})
	type sent struct {
		key     string
		payload []byte
	}
	oracle := map[int64]sent{}
	var kept []Message
	failed := 0
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducerOpts("t", ProducerOptions{MaxBatch: 16})
		must(t, err)
		cons, err := e.cluster.Subscribe("t", "live", Shared, Earliest)
		must(t, err)
		owner, _ := e.cluster.lockHolder("t")
		bookie, _ := e.ledgers.Bookie("bookie-0")
		rng := rand.New(rand.NewSource(44))
		src := make([]byte, 0, 3*ledgerChunk)
		var next int64 // the seq the next committed message gets
		var batch []sent
		var unacked []Message
		armed := false // a drop is waiting: send synchronously until it fires
		message := func(i int) sent {
			n := rng.Intn(64)
			switch r := rng.Intn(1000); {
			case r == 0:
				n = ledgerChunk + rng.Intn(2*ledgerChunk) // more than a chunk
			case r < 10:
				n = 0
			case r < 100:
				n = 64 + rng.Intn(4096)
			}
			src = src[:n]
			rng.Read(src)
			key := ""
			if rng.Intn(2) == 0 {
				key = fmt.Sprintf("k%d", i)
			}
			return sent{key, src}
		}
		commit := func(m sent) { // m's payload is the test's own copy
			oracle[next] = m
			next++
		}
		flush := func() {
			must(t, prod.Flush())
			for _, m := range batch {
				commit(m)
			}
			batch = batch[:0]
		}
		for i := 0; i < ops; i++ {
			if !armed && rng.Intn(250) == 0 {
				flush() // before the drop: a batch hitting it would fail as a whole
				armed = true
				if rng.Intn(2) == 0 {
					owner.DropNext(1)
				} else {
					bookie.DropNext(2) // two: the writer retries a lost RPC once
				}
			}
			m := message(i)
			if armed || rng.Intn(3) == 0 {
				flush() // the sync send below would flush it anyway; this records it
				for {
					seq, err := prod.SendKey(m.key, m.payload)
					if err == nil {
						if seq != next {
							t.Fatalf("op %d: send got seq %d, want %d", i, seq, next)
						}
						break
					}
					if !errors.Is(err, ErrPublishDropped) && !errors.Is(err, ledger.ErrQuorumLost) {
						t.Fatalf("op %d: %v", i, err)
					}
					failed++
					armed = false
				}
				commit(sent{m.key, bytes.Clone(m.payload)})
			} else {
				must(t, prod.SendAsync(m.key, m.payload))
				batch = append(batch, sent{m.key, bytes.Clone(m.payload)})
				if len(batch) == 16 {
					for _, m := range batch { // SendAsync flushed them itself
						commit(m)
					}
					batch = batch[:0]
				} else if rng.Intn(8) == 0 {
					flush()
				}
			}
			clear(src[:cap(src)]) // a caller may reuse its buffer at once
			for {
				got, ok := cons.TryReceive()
				if !ok {
					break
				}
				if got.Seq%97 == 0 || len(got.Payload) > ledgerChunk {
					kept = append(kept, got)
				}
				if rng.Intn(10) == 0 {
					unacked = append(unacked, got)
				} else {
					must(t, cons.Ack(got))
				}
			}
			if len(unacked) > 0 && rng.Intn(5) == 0 {
				must(t, cons.Ack(unacked[0]))
				unacked = unacked[1:]
			}
		}
		flush()
		for len(unacked) > 0 {
			must(t, cons.Ack(unacked[0]))
			unacked = unacked[1:]
		}
		for {
			got, ok := cons.TryReceive()
			if !ok {
				break
			}
			must(t, cons.Ack(got))
		}
		first, _ := retainedFirst(t, e.cluster, "t")
		if first == 0 {
			t.Fatalf("no ledger was deleted over %d messages", next)
		}
		if failed == 0 {
			t.Fatal("no send failed: the retry path went unexercised")
		}
		owner.SetDown(true) // the survivor's recovery reads the ledgers back
		late, err := e.cluster.Subscribe("t", "late", Exclusive, Earliest)
		must(t, err)
		for want := first; want < next; want++ {
			got, ok := late.Receive(time.Second)
			if !ok {
				t.Fatalf("the late subscriber received up to seq %d, want up to %d", want, next)
			}
			if got.Seq != want {
				t.Fatalf("the late subscriber got seq %d, want %d", got.Seq, want)
			}
			if o := oracle[got.Seq]; got.Key != o.key || !bytes.Equal(got.Payload, o.payload) {
				t.Fatalf("seq %d reads back as key %q, %d B; sent key %q, %d B", got.Seq, got.Key, len(got.Payload), o.key, len(o.payload))
			}
			must(t, late.Ack(got))
		}
		late.Close()
		cons.Close()
		deleted := 0
		for _, m := range kept {
			if o := oracle[m.Seq]; m.Key != o.key || !bytes.Equal(m.Payload, o.payload) {
				t.Fatalf("the kept payload of seq %d reads %d B under key %q; sent %d B under %q", m.Seq, len(m.Payload), m.Key, len(o.payload), o.key)
			}
			if m.Seq < first {
				deleted++
			}
		}
		if deleted == 0 {
			t.Fatalf("none of the %d kept messages outlived its ledger", len(kept))
		}
		t.Logf("%d messages, %d failed sends, %d kept (%d of deleted ledgers); the topic retains from seq %d",
			next, failed, len(kept), deleted, first)
	})
}
