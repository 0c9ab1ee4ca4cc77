package pulsar

import (
	"fmt"
	"testing"
	"time"
)

// Regression: a message whose replicator ack is lost in flight is redelivered
// (at-least-once), and the replicator must recognize it as already mirrored —
// re-acking without republishing. Before the mirrored high-water-mark guard,
// this scenario doubled every affected message on the destination.
func TestGeoReplicationRedeliveredEntryNotDoubleReplicated(t *testing.T) {
	e := newEnv(t, 1, 3)
	west := newSecondCluster(e, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		must(t, west.CreateTopic("t", 0))

		repl, err := StartReplicator(e.cluster, west, "t", "t")
		must(t, err)
		// Lose the replicator's next 3 acks in flight: it will mirror the
		// messages and believe they are acked, while the source cursor holds.
		must(t, e.cluster.DropAcks("t", "geo-replicator", 3))

		prod, _ := e.cluster.CreateProducer("t")
		for i := 0; i < 3; i++ {
			_, err := prod.Send([]byte(fmt.Sprintf("m%d", i)))
			must(t, err)
		}
		for i := 0; i < 1000 && repl.Replicated() < 3; i++ {
			e.v.Sleep(5 * time.Millisecond)
		}
		if repl.Replicated() != 3 {
			t.Fatalf("replicated = %d, want 3", repl.Replicated())
		}

		// The swallowed acks left all 3 messages delivered-but-unacked.
		if n, err := e.cluster.Backlog("t", "geo-replicator"); err != nil || n != 3 {
			t.Fatalf("backlog before redelivery = %d (%v), want 3", n, err)
		}
		n, err := e.cluster.RedeliverUnacked("t", "geo-replicator")
		must(t, err)
		if n != 3 {
			t.Fatalf("redelivered = %d, want 3", n)
		}
		// The replicator re-acks the duplicates without republishing; the
		// source backlog drains to zero.
		for i := 0; i < 1000; i++ {
			if b, err := e.cluster.Backlog("t", "geo-replicator"); err == nil && b == 0 {
				break
			}
			e.v.Sleep(5 * time.Millisecond)
		}
		repl.Stop()
		if b, _ := e.cluster.Backlog("t", "geo-replicator"); b != 0 {
			t.Fatalf("source backlog = %d after redelivery, want 0", b)
		}

		// Destination has each message exactly once.
		cons, err := west.Subscribe("t", "check", Exclusive, Earliest)
		must(t, err)
		var got []string
		for {
			m, ok := cons.TryReceive()
			if !ok {
				break
			}
			got = append(got, string(m.Payload))
		}
		if len(got) != 3 {
			t.Fatalf("mirror has %d messages, want exactly 3 (no double replication): %v", len(got), got)
		}
	})
}
