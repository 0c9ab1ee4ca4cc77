package pulsar

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// at reads the window the way production never needs to: one seq's consumer.
func (w *pendingWindow) at(seq int64) int64 {
	if seq < w.base || seq >= w.end {
		return 0
	}
	return *w.slot(seq)
}

// TestPendingWindowMatchesMapOracle drives a subscription's pending window
// and the map[int64]int64 it replaced through the cursor's whole life —
// fresh deliveries, acks in and out of order (repeats included), a consumer
// detaching, RedeliverUnacked, redelivery of seqs acked while they were
// queued — and after every step compares them seq by seq. The oracle forgets what the
// acked prefix passes, which is the one thing the window adds to the map's
// behaviour (see pendingWindow).
func TestPendingWindowMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := int64(rng.Intn(3) * 1000) // Earliest, or Latest on a topic with history
		sub := &subscription{ackedPrefix: start, nextDispatch: start, pending: pendingWindow{base: start, end: start}}
		oracle := map[int64]int64{}
		oracleDrain := func(id int64) []int64 {
			var seqs []int64
			for seq, cid := range oracle {
				if id == 0 || cid == id {
					seqs = append(seqs, seq)
					delete(oracle, seq)
				}
			}
			sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
			return seqs
		}
		deliver := func(seq, id int64) {
			sub.pending.set(seq, id)
			if seq >= sub.ackedPrefix {
				oracle[seq] = id
			}
		}
		consumer := func() int64 { return 1 + int64(rng.Intn(3)) }
		// Drained seqs wait here as in subscription.redeliver; acks go on
		// meanwhile, so some are acked — even passed by the prefix — by the
		// time they are delivered again.
		var queued []int64
		maxRing := 0
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(100); {
			case op < 35: // a burst of fresh deliveries
				for n := 1 + rng.Intn(40); n > 0; n-- {
					deliver(sub.nextDispatch, consumer())
					sub.nextDispatch++
				}
			case op < 90: // a burst of acks anywhere in the dispatched range
				for n := 1 + rng.Intn(40); n > 0 && sub.ackedPrefix < sub.nextDispatch; n-- {
					seq := sub.ackedPrefix // mostly the oldest, as a consumer acks
					if rng.Intn(4) == 0 {
						seq += rng.Int63n(sub.nextDispatch - sub.ackedPrefix)
					}
					sub.pending.clear(seq)
					sub.markAcked(seq)
					sub.pending.advance(sub.ackedPrefix)
					for s := range oracle {
						if s == seq || s < sub.ackedPrefix {
							delete(oracle, s)
						}
					}
				}
			case op < 94: // a consumer detaches
				id := consumer()
				got, want := sub.pending.drain(id, nil), oracleDrain(id)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: detach(%d) drained %v, want %v", seed, step, id, got, want)
				}
				queued = append(queued, got...)
			case op < 97: // RedeliverUnacked
				got, want := sub.pending.drain(0, nil), oracleDrain(0)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: RedeliverUnacked drained %v, want %v", seed, step, got, want)
				}
				queued = append(queued, got...)
			default: // a consumer attaches: the queue is delivered, acked or not
				for _, seq := range queued {
					deliver(seq, consumer())
				}
				queued = queued[:0]
			}
			w := &sub.pending
			if w.base != sub.ackedPrefix || w.end > sub.nextDispatch {
				t.Fatalf("seed %d step %d: window [%d,%d) outside cursor [%d,%d)", seed, step, w.base, w.end, sub.ackedPrefix, sub.nextDispatch)
			}
			for seq := sub.ackedPrefix - 50; seq < sub.nextDispatch+2; seq++ {
				if got, want := w.at(seq), oracle[seq]; got != want {
					t.Fatalf("seed %d step %d: pending[%d] = %d, want %d", seed, step, seq, got, want)
				}
			}
			live := 0
			for _, id := range w.ring {
				if id != 0 {
					live++
				}
			}
			if live != len(oracle) {
				t.Fatalf("seed %d step %d: %d live ring slots, %d pending: a slot outside the window is set", seed, step, live, len(oracle))
			}
			maxRing = max(maxRing, len(w.ring))
		}
		// The ring follows the delivered-unacked span, not the history.
		if span := int(sub.nextDispatch - start); maxRing >= span {
			t.Fatalf("seed %d: ring reached %d slots over %d delivered messages", seed, maxRing, span)
		}
	}
}

// TestPendingWindowRedeliveryOrder is the same contract seen through the
// broker: what RedeliverUnacked and a detach requeue comes back in seq
// order, and a message acked out of order is not among it.
func TestPendingWindowRedeliveryOrder(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() { redeliveryOrder(t, e.cluster) })
}

func redeliveryOrder(t *testing.T, c *Cluster) {
	must(t, c.CreateTopic("t", 0))
	prod, err := c.CreateProducer("t")
	must(t, err)
	cons, err := c.Subscribe("t", "s", Shared, Earliest)
	must(t, err)
	const n = 200 // past the ring's first size
	for i := 0; i < n; i++ {
		_, err := prod.Send([]byte{byte(i)})
		must(t, err)
	}
	var msgs []Message
	for len(msgs) < n {
		m, ok := cons.TryReceive()
		if !ok {
			t.Fatalf("received %d of %d", len(msgs), n)
		}
		msgs = append(msgs, m)
	}
	for _, i := range []int{150, 3, 0, 1, 77} { // prefix ends at 2
		must(t, cons.Ack(msgs[i]))
	}
	want := []int64{}
	for seq := int64(2); seq < n; seq++ {
		if seq != 3 && seq != 77 && seq != 150 {
			want = append(want, seq)
		}
	}
	check := func(what string) {
		t.Helper()
		var got []int64
		for {
			m, ok := cons.TryReceive()
			if !ok {
				break
			}
			got = append(got, m.Seq)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s redelivered %v, want %v", what, got, want)
		}
	}
	got, err := c.RedeliverUnacked("t", "s")
	must(t, err)
	if got != len(want) {
		t.Fatalf("RedeliverUnacked = %d, want %d", got, len(want))
	}
	check("RedeliverUnacked")
	// The same messages again when their consumer goes away.
	cons.Close()
	cons, err = c.Subscribe("t", "s", Shared, Earliest)
	must(t, err)
	defer cons.Close()
	check("detach")
}
