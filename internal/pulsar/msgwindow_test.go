package pulsar

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestMsgWindowMatchesSliceOracle drives a topic's message window beside the
// plain slice of everything ever published — what the topic cache used to be
// — through random interleavings of publishes, acks on two subscriptions with
// different prefixes, a subscription that joins late, and one that goes away.
// After every publish: no subscription's acked prefix has been passed (base
// never trims an unacked seq), every seq from base up reads back as the
// oracle's message, every slot outside [base, end) is zero (a stale slot
// would pin an entry its deleted ledger let go of), and the ring is no larger
// than the doubling that the widest unacked span seen so far demands.
func TestMsgWindowMatchesSliceOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ts := &topicState{name: "t", subs: map[string]*subscription{}}
		var oracle []Message
		// joinBase is where base stood when a subscription joined: one that
		// joins below it (Earliest on a trimmed topic) reads the ledgers for
		// the gap, so what the window owes it starts there.
		joinBase := map[string]int64{}
		join := func(name string, prefix int64) {
			ts.subs[name] = &subscription{name: name, ackedPrefix: prefix}
			joinBase[name] = ts.win.base
		}
		join("a", 0)
		grewWrapped := false
		maxSpan := int64(0)
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(100); {
			case op < 50: // a burst of publishes
				for n := 1 + rng.Intn(30); n > 0; n-- {
					m := Message{Seq: ts.win.end, Key: fmt.Sprintf("k%d", ts.win.end%7), Payload: []byte(fmt.Sprint(ts.win.end)), Topic: "t", PublishTime: time.Unix(0, ts.win.end)}
					ring := len(ts.win.ring)
					ts.retain(m)
					oracle = append(oracle, m)
					if ring > 0 && len(ts.win.ring) > ring && ts.win.base&int64(ring-1) != 0 {
						grewWrapped = true // the old ring's base was not at slot 0
					}
				}
			case op < 92: // a subscription acks some way toward the end
				for _, sub := range ts.subs {
					if rng.Intn(2) == 0 && sub.ackedPrefix < ts.win.end {
						sub.ackedPrefix += rng.Int63n(min(ts.win.end-sub.ackedPrefix, 40) + 1)
					}
				}
			case op < 96: // a second subscription joins, Earliest or Latest
				if _, ok := ts.subs["b"]; !ok {
					join("b", []int64{0, ts.win.end}[rng.Intn(2)])
				}
			default: // and leaves
				delete(ts.subs, "b")
			}
			w := &ts.win
			if w.end != int64(len(oracle)) {
				t.Fatalf("seed %d step %d: end = %d, oracle holds %d", seed, step, w.end, len(oracle))
			}
			if n := len(w.ring); n&(n-1) != 0 || w.end-w.base > int64(n) {
				t.Fatalf("seed %d step %d: ring of %d slots over [%d,%d)", seed, step, n, w.base, w.end)
			}
			floor := w.end
			for name, sub := range ts.subs {
				owed := max(sub.ackedPrefix, joinBase[name])
				if w.base > owed {
					t.Fatalf("seed %d step %d: base %d passed %s's unacked seq %d", seed, step, w.base, name, owed)
				}
				floor = min(floor, owed)
			}
			maxSpan = max(maxSpan, w.end-floor)
			check := func(seq int64) {
				got, want := *w.at(seq), oracle[seq]
				if got.Seq != want.Seq || got.Key != want.Key || !bytes.Equal(got.Payload, want.Payload) || !got.PublishTime.Equal(want.PublishTime) {
					t.Fatalf("seed %d step %d: at(%d) = %+v, want %+v", seed, step, seq, got, want)
				}
			}
			// Both ends and a few between every step; the whole window (a late
			// joiner makes it thousands wide) every 64th.
			if w.end > w.base {
				check(w.base)
				check(w.end - 1)
				for i := 0; i < 4; i++ {
					check(w.base + rng.Int63n(w.end-w.base))
				}
			}
			for seq := w.base; step%64 == 0 && seq < w.end; seq++ {
				check(seq)
			}
			for seq := w.end; step%64 == 0 && seq < w.base+int64(len(w.ring)); seq++ {
				if m := w.at(seq); m.Payload != nil || m.Key != "" {
					t.Fatalf("seed %d step %d: stale slot for seq %d outside [%d,%d) holds %+v", seed, step, seq, w.base, w.end, *m)
				}
			}
		}
		// Bounded by the backlog, not by what was published: the late joiner
		// at prefix 0 is the one case that widens the span to everything.
		limit := int64(msgMinRing)
		for limit < maxSpan {
			limit *= 2
		}
		if got := int64(len(ts.win.ring)); got > limit {
			t.Errorf("seed %d: ring grew to %d slots for a widest unacked span of %d (published %d)", seed, got, maxSpan, len(oracle))
		}
		if !grewWrapped {
			t.Errorf("seed %d: the schedule never grew a wrapped ring", seed)
		}
	}
}
