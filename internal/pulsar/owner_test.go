package pulsar

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// ownerFixture is a plain topic "t" with four messages m0..m3 published, m0
// and m2 acked, moved to its second broker: the consumer, Exclusive on "s",
// has re-attached to the new owner and holds the redelivered m1 and m3.
type ownerFixture struct {
	e     *env
	prod  *Producer
	cons  *Consumer
	owner *Broker // the topic's real owner
	stale *Broker // the owner before the move: live, no longer owning "t"
	held  map[int64]Message
}

func newOwnerFixture(t *testing.T, e *env) *ownerFixture {
	t.Helper()
	c := e.cluster
	must(t, c.CreateTopic("t", 0))
	prod, err := c.CreateProducerOpts("t", ProducerOptions{MaxBatch: 8})
	must(t, err)
	cons, err := c.Subscribe("t", "s", Exclusive, Earliest)
	must(t, err)
	for i := 0; i < 4; i++ {
		_, err := prod.Send([]byte(fmt.Sprintf("m%d", i)))
		must(t, err)
	}
	got := receiveN(t, cons, 4)
	must(t, cons.Ack(got[0]))
	must(t, cons.Ack(got[2]))
	from, _, err := c.ensureOwner("t")
	must(t, err)
	to := "broker-0"
	if from.ID == to {
		to = "broker-1"
	}
	must(t, c.MoveTopic("t", to))
	owner, _ := c.Broker(to)
	return &ownerFixture{e: e, prod: prod, cons: cons, owner: owner, stale: from, held: receiveN(t, cons, 2)}
}

// ownerEntryOf is the owner cache's entry for "t".
func (f *ownerFixture) ownerEntryOf(t *testing.T) ownerEntry {
	t.Helper()
	v, ok := f.e.cluster.owners.Load("t")
	if !ok {
		t.Fatal("no owner cache entry for t")
	}
	return v.(ownerEntry)
}

// TestStaleOwnerRetriedByEveryOp holds every client op on a concrete topic to
// one rule. A stale owner (the cached broker is live but no longer owns the
// topic) is re-resolved and the op succeeds on the real owner with the cursor
// exact; any other error is returned as it is and leaves the cache entry,
// epoch included, untouched.
func TestStaleOwnerRetriedByEveryOp(t *testing.T) {
	stale := []struct {
		name    string
		op      func(t *testing.T, f *ownerFixture)
		backlog int64
		acked   []string
	}{
		{"Send", func(t *testing.T, f *ownerFixture) {
			seq, err := f.prod.Send([]byte("m4"))
			must(t, err)
			if seq != 4 {
				t.Errorf("seq = %d, want 4", seq)
			}
		}, 3, []string{"m0", "m2"}},
		{"SendAsync+Flush", func(t *testing.T, f *ownerFixture) {
			must(t, f.prod.SendAsync("", []byte("m4")))
			must(t, f.prod.SendAsync("", []byte("m5")))
			must(t, f.prod.Flush())
		}, 4, []string{"m0", "m2"}},
		{"Ack", func(t *testing.T, f *ownerFixture) {
			must(t, f.cons.Ack(f.held[1]))
		}, 1, []string{"m0", "m1", "m2"}},
		{"Backlog", func(t *testing.T, f *ownerFixture) {
			n, err := f.e.cluster.Backlog("t", "s")
			must(t, err)
			if n != 2 {
				t.Errorf("backlog = %d, want 2", n)
			}
		}, 2, []string{"m0", "m2"}},
		{"DropAcks", func(t *testing.T, f *ownerFixture) {
			must(t, f.e.cluster.DropAcks("t", "s", 1))
			must(t, f.cons.Ack(f.held[1])) // lost in flight
		}, 2, []string{"m0", "m2"}},
		{"RedeliverUnacked", func(t *testing.T, f *ownerFixture) {
			n, err := f.e.cluster.RedeliverUnacked("t", "s")
			must(t, err)
			if n != 2 {
				t.Errorf("redelivered %d, want 2", n)
			}
		}, 2, []string{"m0", "m2"}},
		{"AckedMessages", func(t *testing.T, f *ownerFixture) {
			out, err := f.e.cluster.AckedMessages("t", "s")
			must(t, err)
			if len(out) != 2 || string(out[0]) != "m0" || string(out[1]) != "m2" {
				t.Errorf("acked messages = %q, want [m0 m2]", out)
			}
		}, 2, []string{"m0", "m2"}},
	}
	for _, tc := range stale {
		t.Run("stale/"+tc.name, func(t *testing.T) {
			e := newEnv(t, 2, 3)
			e.v.Run(func() {
				f := newOwnerFixture(t, e)
				ep := f.ownerEntryOf(t).ep
				e.cluster.owners.Store("t", ownerEntry{b: f.stale, ep: ep})
				tc.op(t, f)
				if got := f.ownerEntryOf(t); got.b != f.owner {
					t.Errorf("cached owner = %s, want %s", got.b.ID, f.owner.ID)
				}
				n, err := e.cluster.Backlog("t", "s")
				must(t, err)
				if n != tc.backlog {
					t.Errorf("backlog after = %d, want %d", n, tc.backlog)
				}
				out, err := e.cluster.AckedMessages("t", "s")
				must(t, err)
				var acked []string
				for _, p := range out {
					acked = append(acked, string(p))
				}
				if !reflect.DeepEqual(acked, tc.acked) {
					t.Errorf("acked after = %q, want %q", acked, tc.acked)
				}
			})
		})
	}

	// The other half: a correct owner under a sentinel epoch. An op that fails
	// for a reason other than a stale owner must not touch the entry.
	unknownSub := func(err error) error {
		if err == nil || !strings.Contains(err.Error(), "unknown subscription") {
			return fmt.Errorf("err = %v, want an unknown subscription", err)
		}
		return nil
	}
	fresh := []struct {
		name string
		op   func(f *ownerFixture) error
	}{
		{"Ack", func(f *ownerFixture) error {
			nosuch := &Consumer{c: f.e.cluster, name: "t", sub: "nosuch"}
			return unknownSub(nosuch.Ack(f.held[1]))
		}},
		{"Backlog", func(f *ownerFixture) error {
			_, err := f.e.cluster.Backlog("t", "nosuch")
			return unknownSub(err)
		}},
		{"DropAcks", func(f *ownerFixture) error {
			return unknownSub(f.e.cluster.DropAcks("t", "nosuch", 1))
		}},
		{"RedeliverUnacked", func(f *ownerFixture) error {
			_, err := f.e.cluster.RedeliverUnacked("t", "nosuch")
			return unknownSub(err)
		}},
		{"AckedMessages", func(f *ownerFixture) error {
			_, err := f.e.cluster.AckedMessages("t", "nosuch")
			return unknownSub(err)
		}},
		{"Subscribe exclusive taken", func(f *ownerFixture) error {
			if _, err := f.e.cluster.Subscribe("t", "s", Exclusive, Earliest); !errors.Is(err, ErrExclusiveTaken) {
				return fmt.Errorf("err = %v, want %v", err, ErrExclusiveTaken)
			}
			return nil
		}},
	}
	for _, tc := range fresh {
		t.Run("fresh/"+tc.name, func(t *testing.T) {
			e := newEnv(t, 2, 3)
			e.v.Run(func() {
				f := newOwnerFixture(t, e)
				sentinel := ownerEntry{b: f.owner, ep: 999}
				e.cluster.owners.Store("t", sentinel)
				if err := tc.op(f); err != nil {
					t.Error(err)
				}
				if got := f.ownerEntryOf(t); got != sentinel {
					t.Errorf("owner entry = {%s %d}, want {%s 999}", got.b.ID, got.ep, f.owner.ID)
				}
			})
		})
	}
}
