package pulsar

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/coord"
	"repro/internal/ledger"
	"repro/internal/simclock"
)

// newEnvCfg is newEnv with an explicit cluster config (capacity model etc).
func newEnvCfg(t *testing.T, brokers, bookies int, cfg ClusterConfig) *env {
	t.Helper()
	v := simclock.NewVirtual()
	t.Cleanup(v.Close)
	meta := coord.NewStore(v)
	ls := ledger.NewSystem(v, meta)
	for i := 0; i < bookies; i++ {
		ls.AddBookie(ledger.NewBookie(fmt.Sprintf("bookie-%d", i)))
	}
	meter := billing.NewMeter()
	cl := NewCluster(v, meta, ls, meter, cfg)
	for i := 0; i < brokers; i++ {
		cl.AddBroker(fmt.Sprintf("broker-%d", i))
	}
	return &env{v: v, cluster: cl, meter: meter, ledgers: ls}
}

// TestMoveTopicExactCursor: a graceful reassignment restores the cursor
// exactly like a failover — unacked messages (including holes behind
// out-of-order acks) redeliver, acked ones never do, none are lost.
func TestMoveTopicExactCursor(t *testing.T) {
	e := newEnv(t, 2, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("orders", 0))
		prod, err := e.cluster.CreateProducer("orders")
		must(t, err)
		cons, err := e.cluster.Subscribe("orders", "app", Shared, Earliest)
		must(t, err)
		for i := 0; i < 10; i++ {
			_, err := prod.Send([]byte(fmt.Sprintf("m%d", i)))
			must(t, err)
		}
		// Ack a ragged subset: prefix 0-2 plus out-of-order 5 and 7.
		got := map[int64]Message{}
		for i := 0; i < 10; i++ {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatalf("missing message %d", i)
			}
			got[m.Seq] = m
		}
		for _, seq := range []int64{0, 1, 2, 5, 7} {
			must(t, cons.Ack(got[seq]))
		}

		from, _, err := e.cluster.ensureOwner("orders")
		must(t, err)
		to := "broker-0"
		if from.ID == to {
			to = "broker-1"
		}
		must(t, e.cluster.MoveTopic("orders", to))
		if b, _, err := e.cluster.ensureOwner("orders"); err != nil || b.ID != to {
			t.Fatalf("owner after move = %v, %v; want %s", b, err, to)
		}

		// The old consumer re-attaches to the new owner on its next poll and
		// receives exactly the unacked set.
		want := map[int64]bool{3: true, 4: true, 6: true, 8: true, 9: true}
		seen := map[int64]bool{}
		for len(seen) < len(want) {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatalf("timed out; redelivered so far %v", seen)
			}
			if !want[m.Seq] {
				t.Fatalf("redelivered seq %d which was already acked", m.Seq)
			}
			seen[m.Seq] = true
			must(t, cons.Ack(m))
		}
		// New publishes flow through the new owner at the next seq.
		seq, err := prod.Send([]byte("m10"))
		must(t, err)
		if seq != 10 {
			t.Fatalf("post-move seq = %d, want 10", seq)
		}
	})
}

// TestLoadManagerMovesHotTopic: with every topic elected onto one broker,
// the manager's first ticks shed the hottest topics to the idle broker.
func TestLoadManagerMovesHotTopic(t *testing.T) {
	e := newEnv(t, 2, 3)
	e.v.Run(func() {
		// Both topic names hash onto broker-0 with two live brokers.
		names := []string{}
		for i := 0; len(names) < 2; i++ {
			n := fmt.Sprintf("skew-%d", i)
			if int(fnv1a(n))%2 == 0 {
				names = append(names, n)
			}
		}
		prods := map[string]*Producer{}
		for _, n := range names {
			must(t, e.cluster.CreateTopic(n, 0))
			p, err := e.cluster.CreateProducer(n)
			must(t, err)
			prods[n] = p
		}
		lm := e.cluster.NewLoadManager(LoadManagerConfig{
			Interval:       100 * time.Millisecond,
			OverloadFactor: 1.1,
			MinMoveRate:    10,
		})
		// Uneven load: names[0] hot, names[1] warm — both on broker-0.
		for i := 0; i < 200; i++ {
			_, err := prods[names[0]].Send([]byte("x"))
			must(t, err)
		}
		for i := 0; i < 50; i++ {
			_, err := prods[names[1]].Send([]byte("x"))
			must(t, err)
		}
		for _, n := range names {
			if b, _, err := e.cluster.ensureOwner(n); err != nil || b.ID != "broker-0" {
				t.Fatalf("%s owner = %v, %v; want broker-0", n, b, err)
			}
		}
		lm.Tick() // baseline sample
		lm.Tick() // sees the rates, moves the hot topic
		ev := lm.Report().Events
		if len(ev) != 1 || ev[0].Action != "move" || ev[0].Topic != names[0] || ev[0].To != "broker-1" {
			t.Fatalf("events = %+v", ev)
		}
		if b, _, err := e.cluster.ensureOwner(names[0]); err != nil || b.ID != "broker-1" {
			t.Fatalf("hot topic owner after move = %v, %v", b, err)
		}
		rep := lm.Report()
		if rep.Moves != 1 || len(rep.Brokers) != 2 {
			t.Fatalf("report = %+v", rep)
		}
	})
}
