package chaos

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/ledger"
	"repro/internal/pulsar"
	"repro/internal/simclock"
)

// moveCrashResult digests one run of the mid-handoff crash scenario: the
// fault log, the move's outcome, and everything the consumer saw.
type moveCrashResult struct {
	log      []string
	moveErr  string
	redeliv  []int64 // seqs redelivered after the failed handoff
	finalSeq int64
}

// runMoveCrash drives a partition reassignment whose destination broker
// crashes inside the handoff window (stretched by SetHandoffDelay so the
// fault schedule can land there). The topic is left unowned; the next
// publish elects the surviving broker through the same exact-cursor
// recovery as a failover.
func runMoveCrash(t *testing.T) moveCrashResult {
	t.Helper()
	v := simclock.NewVirtual()
	defer v.Close()
	meta := coord.NewStore(v)
	ls := ledger.NewSystem(v, meta)
	for i := 0; i < 3; i++ {
		ls.AddBookie(ledger.NewBookie(fmt.Sprintf("bookie-%d", i)))
	}
	cluster := pulsar.NewCluster(v, meta, ls, nil, pulsar.ClusterConfig{})
	for i := 0; i < 2; i++ {
		cluster.AddBroker(fmt.Sprintf("broker-%d", i))
	}
	inj := NewInjector(v, ls, cluster, nil)
	// Crash the destination 1.333ms into the run — inside the 2ms handoff
	// window — and restart it well after the scenario re-elects the
	// survivor. Events keep the generator's off-grid 333µs convention.
	sch := Schedule{
		{At: time.Millisecond + eventOffset, Op: OpCrash, Kind: KindBroker, Target: "broker-1"},
		{At: 8*time.Millisecond + eventOffset, Op: OpRestart, Kind: KindBroker, Target: "broker-1"},
	}

	res := moveCrashResult{}
	v.Run(func() {
		must(t, cluster.CreateTopic("orders", 0))
		must(t, cluster.MoveTopic("orders", "broker-0")) // pin the initial owner
		prod, err := cluster.CreateProducer("orders")
		must(t, err)
		cons, err := cluster.Subscribe("orders", "app", pulsar.Shared, pulsar.Earliest)
		must(t, err)
		for i := 0; i < 10; i++ {
			_, err := prod.Send([]byte(fmt.Sprintf("m%d", i)))
			must(t, err)
		}
		got := map[int64]pulsar.Message{}
		for i := 0; i < 10; i++ {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatalf("missing message %d", i)
			}
			got[m.Seq] = m
		}
		// Ragged acks: a prefix plus out-of-order holes, so the recovered
		// cursor has both an acked prefix and individually-acked islands.
		acked := map[int64]bool{0: true, 1: true, 2: true, 5: true, 7: true}
		for seq := range acked {
			must(t, cons.Ack(got[seq]))
		}

		cluster.SetHandoffDelay(2 * time.Millisecond)
		inj.Run(sch)
		wg := simclock.NewGroup(v)
		wg.Go(func() {
			err := cluster.MoveTopic("orders", "broker-1")
			if err == nil {
				t.Error("move to crashed broker unexpectedly succeeded")
				return
			}
			if !errors.Is(err, pulsar.ErrBrokerDown) {
				t.Errorf("move error = %v, want ErrBrokerDown", err)
			}
			res.moveErr = "broker-down"
		})
		wg.Wait()
		cluster.SetHandoffDelay(0)

		// The topic is unowned and the destination is still down: the next
		// publish elects the survivor, recovering the exact cursor.
		for i := 10; i < 15; i++ {
			seq, err := prod.Send([]byte(fmt.Sprintf("m%d", i)))
			must(t, err)
			if seq != int64(i) {
				t.Fatalf("post-crash publish seq = %d, want %d (acked history lost?)", seq, i)
			}
		}
		// Exactly the unacked messages redeliver, then the new ones; no
		// acked message ever comes back.
		want := 5 + 5 // unacked {3,4,6,8,9} + new 10..14
		for len(res.redeliv) < want {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatalf("timed out; got %v", res.redeliv)
			}
			if acked[m.Seq] {
				t.Fatalf("acked seq %d redelivered after failed handoff", m.Seq)
			}
			res.redeliv = append(res.redeliv, m.Seq)
			must(t, cons.Ack(m))
		}

		inj.Wait() // broker-1 restarts at 8.333ms
		must(t, cluster.MoveTopic("orders", "broker-1"))
		seq, err := prod.Send([]byte("m15"))
		must(t, err)
		res.finalSeq = seq
		m, ok := cons.Receive(time.Second)
		if !ok || m.Seq != seq {
			t.Fatalf("final message: got %v %v, want seq %d", m, ok, seq)
		}
		must(t, cons.Ack(m))
	})
	res.log = inj.Log()
	return res
}

// TestMoveDestinationCrashMidHandoff: crashing the reassignment destination
// inside the handoff window loses nothing — acked messages never redeliver,
// unacked ones redeliver exactly once from the recovered cursor, sequence
// numbers continue unbroken, and the whole scenario is rerun-identical
// under -race.
func TestMoveDestinationCrashMidHandoff(t *testing.T) {
	a := runMoveCrash(t)
	if a.moveErr != "broker-down" {
		t.Fatalf("move outcome = %q", a.moveErr)
	}
	if a.finalSeq != 15 {
		t.Fatalf("final seq = %d, want 15", a.finalSeq)
	}
	if len(a.log) != 2 || !strings.Contains(a.log[0], "crash broker/broker-1") {
		t.Fatalf("fault log = %v", a.log)
	}
	b := runMoveCrash(t)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("reruns diverged:\n%+v\n%+v", a, b)
	}
}
