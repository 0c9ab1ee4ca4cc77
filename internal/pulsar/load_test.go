package pulsar

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/coord"
	"repro/internal/ledger"
	"repro/internal/obs"
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

// publish commits one message straight to a broker, bypassing the producer's
// routing and retries, as a group of one.
func (b *Broker) publish(topicName, key string, payload []byte) (int64, error) {
	keys, payloads, traces, entries := [1]string{key}, [1][]byte{payload}, [1]obs.TraceCtx{}, [1][]byte{}
	return b.publishEntries(topicName, keys[:], payloads[:], traces[:], entries[:])
}

// keysInRange deterministically scans "user-N" keys until it finds count
// whose fnv1a hash falls in [lo, hi).
func keysInRange(lo, hi uint64, count int) []string {
	var out []string
	for i := 0; len(out) < count; i++ {
		k := fmt.Sprintf("user-%d", i)
		if h := uint64(fnv1a(k)); h >= lo && h < hi {
			out = append(out, k)
		}
	}
	return out
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

// TestSplitPartitionRouting: splitting a partition moves the upper half of
// its key range onto a new concrete topic; producers created before the
// split route to the child without recreation, and the parent fences stale
// routes with ErrRouteMoved.
func TestSplitPartitionRouting(t *testing.T) {
	e := newEnv(t, 2, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 2))
		prod, err := e.cluster.CreateProducer("t")
		must(t, err)
		// Partition 0 spans [0, 2^31); after one split its upper half
		// [2^30, 2^31) belongs to the child t-partition-2.
		low := keysInRange(0, 1<<30, 1)[0]
		high := keysInRange(1<<30, 1<<31, 1)[0]
		for _, k := range []string{low, high} {
			if _, err := prod.SendKey(k, []byte("pre")); err != nil {
				t.Fatalf("pre-split send %q: %v", k, err)
			}
		}
		child, err := e.cluster.SplitPartition("t", "t-partition-0", "broker-1")
		must(t, err)
		if child != "t-partition-2" {
			t.Fatalf("child = %q", child)
		}
		if md, _ := e.cluster.getTopicMeta("t"); md.Partitions != 3 {
			t.Fatalf("partitions after split = %d", md.Partitions)
		}
		// The same producer re-routes: low key stays on the parent, high key
		// lands on the child.
		if _, err := prod.SendKey(low, []byte("post")); err != nil {
			t.Fatalf("post-split low send: %v", err)
		}
		if _, err := prod.SendKey(high, []byte("post")); err != nil {
			t.Fatalf("post-split high send: %v", err)
		}
		b, _, err := e.cluster.ensureOwner(child)
		must(t, err)
		if b.ID != "broker-1" {
			t.Fatalf("child owner = %s, want broker-1", b.ID)
		}
		if n, err := b.backlog(child, "nosub"); err == nil {
			t.Fatalf("unexpected subscription on child: %d", n)
		}
		// The parent broker now fences the high key outright.
		pb, _, err := e.cluster.ensureOwner("t-partition-0")
		must(t, err)
		if _, err := pb.publish("t-partition-0", high, []byte("stale")); !errors.Is(err, ErrRouteMoved) {
			t.Fatalf("stale publish err = %v, want ErrRouteMoved", err)
		}
	})
}

// TestSplitPreservesPerKeyOrderBatched: a producer with a buffered batch
// spanning a split gets the whole batch bounced by the range fence and
// redistributes it in message order — no key is ever delivered out of
// order, and nothing is lost or duplicated.
func TestSplitPreservesPerKeyOrderBatched(t *testing.T) {
	e := newEnv(t, 2, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 2))
		prod, err := e.cluster.CreateProducerOpts("t", ProducerOptions{MaxBatch: 64, FlushInterval: time.Hour})
		must(t, err)
		cons, err := e.cluster.Subscribe("t", "tail", Shared, Earliest)
		must(t, err)

		keys := append(keysInRange(0, 1<<30, 2), keysInRange(1<<30, 1<<31, 2)...)
		counter := map[string]int{}
		sendRound := func(n int) {
			for i := 0; i < n; i++ {
				k := keys[i%len(keys)]
				counter[k]++
				must(t, prod.SendAsync(k, []byte(fmt.Sprintf("%s#%d", k, counter[k]))))
			}
		}
		sendRound(20)
		must(t, prod.Flush())
		// Buffer a batch, split mid-buffer, then flush: the batch routed
		// with the pre-split table and must be redistributed.
		sendRound(20)
		if _, err := e.cluster.SplitPartition("t", "t-partition-0", "broker-1"); err != nil {
			t.Fatal(err)
		}
		must(t, prod.Flush())
		sendRound(20)
		must(t, prod.Flush())

		total := 0
		for _, n := range counter {
			total += n
		}
		lastSeen := map[string]int{}
		for received := 0; received < total; received++ {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatalf("received %d of %d then timed out", received, total)
			}
			k, seq, ok := strings.Cut(string(m.Payload), "#")
			if !ok || k != m.Key {
				t.Fatalf("payload %q does not match key %q", m.Payload, m.Key)
			}
			n, err := strconv.Atoi(seq)
			if err != nil {
				t.Fatalf("payload %q: %v", m.Payload, err)
			}
			if n != lastSeen[m.Key]+1 {
				t.Fatalf("key %s: received #%d after #%d (payload %q on %s)", m.Key, n, lastSeen[m.Key], m.Payload, m.Topic)
			}
			lastSeen[m.Key] = n
			must(t, cons.Ack(m))
		}
		if m, ok := cons.Receive(10 * time.Millisecond); ok {
			t.Fatalf("duplicate delivery %q seq %d on %s", m.Payload, m.Seq, m.Topic)
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
