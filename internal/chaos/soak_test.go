package chaos

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/jiffy"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/pulsar"
	"repro/internal/simclock"
)

// soakSeed drives the soak's fault schedule. Chosen so the plan crashes at
// least one bookie, one broker and one jiffy node (asserted below) — the
// three end-to-end recovery paths the chaos plane exists to exercise.
const soakSeed = 6

// soakResult is the run's digest: the applied-fault log plus everything the
// workloads acknowledged and observed. Two runs with the same seed must
// produce identical digests.
type soakResult struct {
	log          []string
	ledgerAcked  int
	ledgerRead   int
	jiffyPuts    int
	pubAcked     []string
	consumed     map[int64]int // seq → times received
	injectedObs  int64
	recoveriesLg int64
	recoveriesPl int64
}

// runSoak drives the full Figure-1 stack — ledger appends, jiffy KV+FIFO
// traffic, pulsar publish/consume/ack — under a seeded fault schedule, then
// verifies zero acked data was lost anywhere.
func runSoak(t *testing.T, seed int64) soakResult {
	t.Helper()
	v := simclock.NewVirtual()
	defer v.Close()
	meta := coord.NewStore(v)
	// The pulsar-path bookies stay at zero modelled latency: brokers append
	// under their topic locks, and a sleeper holding a lock the injector
	// contends stalls the virtual clock.
	ls := ledger.NewSystem(v, meta)
	for i := 0; i < 3; i++ {
		ls.AddBookie(ledger.NewBookie(fmt.Sprintf("pbookie-%d", i)))
	}
	cluster := pulsar.NewCluster(v, meta, ls, nil, pulsar.ClusterConfig{})
	for i := 0; i < 3; i++ {
		cluster.AddBroker(fmt.Sprintf("broker-%d", i))
	}
	jc := jiffy.NewController(v, nil, jiffy.Config{Latency: jiffy.NoLatency, DefaultLease: -1})
	for i := 0; i < 4; i++ {
		jc.AddNode(fmt.Sprintf("mem-%d", i), 16)
	}
	// The ledger workload gets its own bookie fleet with a real append
	// latency (own metadata store, so ledger ids don't collide with the
	// pulsar topics'): appends span the fault instants, so bookie crashes
	// land mid-batch-append. All fault-plane bookie events target this
	// system; its sleeps happen only in the workload goroutine, lock-free.
	lsys := ledger.NewSystem(v, coord.NewStore(v))
	lsys.AppendLatency = time.Millisecond
	for i := 0; i < 5; i++ {
		lsys.AddBookie(ledger.NewBookie(fmt.Sprintf("bookie-%d", i)))
	}
	reg := obs.New(v)
	ls.SetObs(reg)
	lsys.SetObs(reg)
	cluster.SetObs(reg)
	jc.SetObs(reg)
	inj := NewInjector(v, lsys, cluster, jc)
	inj.SetObs(reg)
	sch := Generate(Options{
		Seed:       seed,
		Duration:   120 * time.Millisecond,
		Bookies:    lsys.BookieIDs(),
		Brokers:    cluster.BrokerIDs(),
		JiffyNodes: jc.NodeIDs(),
		Crashes:    6,
		Stragglers: 3,
		Drops:      3,
	})
	kinds := map[Kind]bool{}
	for _, e := range sch {
		if e.Op == OpCrash {
			kinds[e.Kind] = true
		}
	}
	if !kinds[KindBookie] || !kinds[KindBroker] || !kinds[KindJiffy] {
		t.Fatalf("seed %d does not crash all three kinds (%v); pick another", seed, kinds)
	}

	res := soakResult{consumed: map[int64]int{}}
	const iters = 60
	v.Run(func() {
		// --- setup ---
		must(t, cluster.CreateTopic("soak", 0))
		prod, err := cluster.CreateProducer("soak")
		must(t, err)
		cons, err := cluster.Subscribe("soak", "s", pulsar.Exclusive, pulsar.Earliest)
		must(t, err)
		ns, err := jc.CreateNamespace("/soak", jiffy.NamespaceOptions{Replicas: 2, InitialBlocks: 2})
		must(t, err)
		w, err := lsys.CreateLedger(3, 2, 2)
		must(t, err)

		inj.Run(sch)
		wg := simclock.NewGroup(v)
		var ackedEntries [][]byte
		var mu sync.Mutex

		// Ledger workload: a batch append every 2ms. With 5 bookies and at
		// most one down, ensemble replacement must absorb every crash: a
		// failed append here is a recovery bug, not acceptable chaos.
		wg.Go(func() {
			for i := 0; i < iters; i++ {
				batch := [][]byte{
					[]byte(fmt.Sprintf("L%d-a", i)),
					[]byte(fmt.Sprintf("L%d-b", i)),
				}
				if _, err := w.AppendBatch(batch); err != nil {
					t.Errorf("ledger append %d failed under chaos: %v", i, err)
				} else {
					mu.Lock()
					ackedEntries = append(ackedEntries, batch...)
					mu.Unlock()
				}
				v.Sleep(2 * time.Millisecond)
			}
		})

		// Jiffy workload: replicated KV puts plus FIFO enqueue/dequeue. With
		// Replicas=2 a single node loss is repaired in place, so no op may
		// fail and no acked put may vanish.
		jiffyAcked := map[string]string{}
		var enq, deq []string
		wg.Go(func() {
			for i := 0; i < iters; i++ {
				k, val := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
				if err := ns.Put(k, []byte(val)); err != nil {
					t.Errorf("jiffy Put(%s) failed under chaos: %v", k, err)
				} else {
					jiffyAcked[k] = val
				}
				item := fmt.Sprintf("q%d", i)
				if err := ns.Enqueue([]byte(item)); err != nil {
					t.Errorf("jiffy Enqueue(%s) failed under chaos: %v", item, err)
				} else {
					enq = append(enq, item)
				}
				if i%3 == 2 {
					if it, err := ns.Dequeue(); err != nil {
						t.Errorf("jiffy Dequeue failed under chaos: %v", err)
					} else {
						deq = append(deq, string(it))
					}
				}
				v.Sleep(2 * time.Millisecond)
			}
		})

		// Pulsar producer: a publish every 2ms. Drop injections and
		// exhausted failover retries may fail a publish — that loss is
		// legal (never acked); only acked publishes are load-bearing.
		prodDone := make(chan struct{})
		wg.Go(func() {
			defer close(prodDone)
			for i := 0; i < iters; i++ {
				payload := fmt.Sprintf("m%d", i)
				if _, err := prod.Send([]byte(payload)); err == nil {
					mu.Lock()
					res.pubAcked = append(res.pubAcked, payload)
					mu.Unlock()
				}
				v.Sleep(2 * time.Millisecond)
			}
		})

		// Pulsar consumer: receive and ack everything, riding through
		// broker failovers; drains after the producer stops.
		received := map[int64][]byte{}
		wg.Go(func() {
			done := false
			for {
				m, ok := cons.Receive(4 * time.Millisecond)
				if ok {
					received[m.Seq] = m.Payload
					res.consumed[m.Seq]++
					_ = cons.Ack(m)
					continue
				}
				if done {
					return
				}
				select {
				case <-prodDone:
					done = true
				default:
				}
			}
		})

		wg.Wait()
		inj.Wait()

		// --- verification: zero lost acked data, everywhere ---
		must(t, w.Close())
		r, err := lsys.OpenReader(w.ID())
		must(t, err)
		var entries [][]byte
		for e := int64(0); e <= r.LastEntry(); e++ {
			data, err := r.Read(e)
			must(t, err)
			entries = append(entries, data)
		}
		res.ledgerRead = len(entries)
		mu.Lock()
		res.ledgerAcked = len(ackedEntries)
		if len(entries) != len(ackedEntries) {
			t.Errorf("ledger: read %d entries, acked %d", len(entries), len(ackedEntries))
		} else {
			for i := range entries {
				if !bytes.Equal(entries[i], ackedEntries[i]) {
					t.Errorf("ledger entry %d = %q, acked %q", i, entries[i], ackedEntries[i])
					break
				}
			}
		}
		mu.Unlock()

		res.jiffyPuts = len(jiffyAcked)
		for k, want := range jiffyAcked {
			if got, err := ns.Get(k); err != nil || string(got) != want {
				t.Errorf("jiffy: acked put %s = %q, %v (want %q)", k, got, err, want)
			}
		}
		for {
			it, err := ns.Dequeue()
			if err != nil {
				break
			}
			deq = append(deq, string(it))
		}
		if !reflect.DeepEqual(deq, enq) {
			t.Errorf("jiffy FIFO: dequeued %d items, enqueued %d (order or loss mismatch)", len(deq), len(enq))
		}

		for _, payload := range res.pubAcked {
			found := false
			for _, got := range received {
				if string(got) == payload {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("pulsar: acked publish %q never delivered", payload)
			}
		}
	})

	res.log = inj.Log()
	if len(res.log) != len(sch) {
		t.Errorf("applied %d events, scheduled %d", len(res.log), len(sch))
	}
	res.injectedObs = reg.CounterValue("chaos.injected")
	res.recoveriesLg = reg.CounterValue("ledger.recoveries")
	res.recoveriesPl = reg.CounterValue("pulsar.recoveries")
	if res.injectedObs != int64(len(sch)) {
		t.Errorf("chaos.injected = %d, want %d", res.injectedObs, len(sch))
	}
	return res
}

// TestChaosSoak is the end-to-end chaos regression: a seeded fault schedule
// (bookie, broker and jiffy crashes, stragglers, drops) runs against live
// traffic on every plane, and no acked write is lost anywhere. Two runs with
// the same seed must be byte-identical — event log and workload digest — or
// the virtual-clock determinism the whole harness rests on has regressed.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	r1 := runSoak(t, soakSeed)
	if t.Failed() {
		t.Fatalf("first soak run failed; log:\n%s", joinLines(r1.log))
	}
	r2 := runSoak(t, soakSeed)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("soak not deterministic across runs:\nrun1: %+v\nrun2: %+v", r1, r2)
	}
	if r1.recoveriesLg < 1 {
		t.Errorf("ledger.recoveries = %d, want >= 1 (bookie crash should force ensemble change)", r1.recoveriesLg)
	}
	if r1.recoveriesPl < 1 {
		t.Errorf("pulsar.recoveries = %d, want >= 1 (broker crash should force topic takeover)", r1.recoveriesPl)
	}
}

func joinLines(lines []string) string {
	var b bytes.Buffer
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}
