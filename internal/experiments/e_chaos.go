package experiments

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/chaos"
	"repro/internal/coord"
	"repro/internal/jiffy"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/pulsar"
	"repro/internal/simclock"
)

// chaosDigest is everything one seeded chaos run produced: the applied-fault
// log plus per-plane acked/verified counts. Two runs with the same seed must
// yield identical digests — that equality is E26's determinism row.
type chaosDigest struct {
	Log          []string
	LedgerAcked  int
	LedgerRead   int
	JiffyAcked   int
	JiffyOK      int
	FifoEnq      int
	FifoDeq      int
	PubAcked     int
	PubDelivered int
	Injected     int64
	RecoveriesLg int64
	RecoveriesPl int64
	MTTRMax      time.Duration
}

// E26ChaosRecovery: §4.3/§4.4 — the platform's recovery story under a seeded
// fault schedule. Bookies, brokers and Jiffy memory nodes crash (plus
// stragglers and dropped operations) while live traffic runs on every plane;
// the experiment counts acked writes that survived, and runs the whole thing
// twice to show the fault plane is deterministic.
func E26ChaosRecovery() Table {
	const seed = 6
	d1 := runChaosSoak(seed)
	d2 := runChaosSoak(seed)
	deterministic := reflect.DeepEqual(d1, d2)

	table := Table{
		ID:      "E26",
		Title:   "Seeded chaos soak: recovery across ledger, Jiffy and Pulsar",
		Claim:   "§4.3/§4.4: replicated ledgers, stateless brokers and replicated ephemeral state recover from fail-stop faults without losing acked writes",
		Columns: []string{"plane", "acked", "verified", "lost"},
		Rows: [][]string{
			{"ledger entries", f("%d", d1.LedgerAcked), f("%d", d1.LedgerRead), f("%d", d1.LedgerAcked-d1.LedgerRead)},
			{"jiffy KV puts", f("%d", d1.JiffyAcked), f("%d", d1.JiffyOK), f("%d", d1.JiffyAcked-d1.JiffyOK)},
			{"jiffy FIFO items", f("%d", d1.FifoEnq), f("%d", d1.FifoDeq), f("%d", d1.FifoEnq-d1.FifoDeq)},
			{"pulsar publishes", f("%d", d1.PubAcked), f("%d", d1.PubDelivered), f("%d", d1.PubAcked-d1.PubDelivered)},
		},
	}
	table.Notes = f("seed %d injected %d faults (ledger recoveries %d, pulsar takeovers %d, max MTTR %v); identical rerun digest: %v",
		seed, d1.Injected, d1.RecoveriesLg, d1.RecoveriesPl, d1.MTTRMax, deterministic)
	return table
}

// runChaosSoak drives one seeded fault schedule against live ledger, Jiffy
// and Pulsar traffic on a fresh virtual-clock stack. The Pulsar path keeps
// its own zero-latency bookie fleet: brokers append while holding topic
// locks, and a sleeper holding a lock the injector contends would stall the
// virtual clock. The chaos-targeted bookies live in a second ledger system
// (own metadata store, so ledger ids don't collide) whose 1ms append latency
// makes crashes land mid-append.
func runChaosSoak(seed int64) chaosDigest {
	v := simclock.NewVirtual()
	defer v.Close()
	meta := coord.NewStore(v)
	pls := ledger.NewSystem(v, meta)
	for i := 0; i < 3; i++ {
		pls.AddBookie(ledger.NewBookie(fmt.Sprintf("pbookie-%d", i)))
	}
	cluster := pulsar.NewCluster(v, meta, pls, nil, pulsar.ClusterConfig{})
	for i := 0; i < 3; i++ {
		cluster.AddBroker(fmt.Sprintf("broker-%d", i))
	}
	jc := jiffy.NewController(v, nil, jiffy.Config{Latency: jiffy.NoLatency, DefaultLease: -1})
	for i := 0; i < 4; i++ {
		jc.AddNode(fmt.Sprintf("mem-%d", i), 16)
	}
	lsys := ledger.NewSystem(v, coord.NewStore(v))
	lsys.AppendLatency = time.Millisecond
	for i := 0; i < 5; i++ {
		lsys.AddBookie(ledger.NewBookie(fmt.Sprintf("bookie-%d", i)))
	}
	reg := obs.New(v)
	lsys.SetObs(reg)
	cluster.SetObs(reg)
	jc.SetObs(reg)
	inj := chaos.NewInjector(v, lsys, cluster, jc)
	inj.SetObs(reg)
	sch := chaos.Generate(chaos.Options{
		Seed:       seed,
		Duration:   120 * time.Millisecond,
		Bookies:    lsys.BookieIDs(),
		Brokers:    cluster.BrokerIDs(),
		JiffyNodes: jc.NodeIDs(),
		Crashes:    6,
		Stragglers: 3,
		Drops:      3,
	})

	var d chaosDigest
	const iters = 50
	v.Run(func() {
		if err := cluster.CreateTopic("soak", 0); err != nil {
			panic(err)
		}
		prod, err := cluster.CreateProducer("soak")
		if err != nil {
			panic(err)
		}
		cons, err := cluster.Subscribe("soak", "s", pulsar.Exclusive, pulsar.Earliest)
		if err != nil {
			panic(err)
		}
		ns, err := jc.CreateNamespace("/soak", jiffy.NamespaceOptions{Replicas: 2, InitialBlocks: 2})
		if err != nil {
			panic(err)
		}
		w, err := lsys.CreateLedger(3, 2, 2)
		if err != nil {
			panic(err)
		}

		inj.Run(sch)
		workers := simclock.NewGroup(v)

		var acked int
		workers.Go(func() {
			for i := 0; i < iters; i++ {
				if _, err := w.Append([]byte(fmt.Sprintf("L%d", i))); err == nil {
					acked++
				}
				v.Sleep(2 * time.Millisecond)
			}
		})

		jiffyAcked := map[string]string{}
		var enq []string
		workers.Go(func() {
			for i := 0; i < iters; i++ {
				k, val := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
				if err := ns.Put(k, []byte(val)); err == nil {
					jiffyAcked[k] = val
				}
				item := fmt.Sprintf("q%d", i)
				if err := ns.Enqueue([]byte(item)); err == nil {
					enq = append(enq, item)
				}
				v.Sleep(2 * time.Millisecond)
			}
		})

		var pubAcked []string
		prodDone := make(chan struct{})
		workers.Go(func() {
			defer close(prodDone)
			for i := 0; i < iters; i++ {
				payload := fmt.Sprintf("m%d", i)
				if _, err := prod.Send([]byte(payload)); err == nil {
					pubAcked = append(pubAcked, payload)
				}
				v.Sleep(2 * time.Millisecond)
			}
		})

		received := map[string]bool{}
		workers.Go(func() {
			closing := false
			for {
				m, ok := cons.Receive(4 * time.Millisecond)
				if ok {
					received[string(m.Payload)] = true
					_ = cons.Ack(m)
					continue
				}
				if closing {
					return
				}
				select {
				case <-prodDone:
					closing = true
				default:
				}
			}
		})

		workers.Wait()
		inj.Wait()

		// Verify each plane against what was acked.
		if err := w.Close(); err != nil {
			panic(err)
		}
		r, err := lsys.OpenReader(w.ID())
		if err != nil {
			panic(err)
		}
		for e := int64(0); e <= r.LastEntry(); e++ {
			if _, err := r.Read(e); err != nil {
				panic(err)
			}
		}
		d.LedgerAcked, d.LedgerRead = acked, int(r.LastEntry()+1)

		d.JiffyAcked = len(jiffyAcked)
		for k, want := range jiffyAcked {
			if got, err := ns.Get(k); err == nil && string(got) == want {
				d.JiffyOK++
			}
		}
		d.FifoEnq = len(enq)
		for i := 0; ; i++ {
			it, err := ns.Dequeue()
			if err != nil {
				break
			}
			if i < len(enq) && string(it) == enq[i] {
				d.FifoDeq++
			}
		}

		d.PubAcked = len(pubAcked)
		for _, p := range pubAcked {
			if received[p] {
				d.PubDelivered++
			}
		}
	})

	d.Log = inj.Log()
	d.Injected = reg.CounterValue("chaos.injected")
	d.RecoveriesLg = reg.CounterValue("ledger.recoveries")
	d.RecoveriesPl = reg.CounterValue("pulsar.recoveries")
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "chaos.mttr" {
			d.MTTRMax = h.Max
		}
	}
	return d
}
