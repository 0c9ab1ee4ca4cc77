package experiments

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/pulsar"
	"repro/internal/simclock"
	"repro/internal/sketch"
	"repro/internal/workload"
)

// E6PulsarSketch: §4.3.1 / Figure 3 — stateful streaming analytics as a
// Pulsar function, a faas function bound to a topic: a Count-Min sketch over
// a skewed event stream, estimates checked against exact counts and the
// sketch's εN bound.
func E6PulsarSketch() Table {
	p, v := core.NewVirtual(core.Options{})
	defer v.Close()
	const events = 6000
	keys := workload.ZipfKeys(500, 1.3, events, 6)
	truth := map[string]uint64{}
	for _, k := range keys {
		truth[k]++
	}

	cm := sketch.NewCountMinWH(272, 5) // ε≈0.01, δ≈0.007
	var processed int
	var wall time.Duration
	v.Run(func() {
		// The stream is published at one instant; the handler stamps the
		// instant the last event lands, so the span is the function's work.
		var doneAt time.Time
		done := simclock.NewEvent(v)
		if err := p.Pulsar.CreateTopic("events", 4); err != nil {
			panic(err)
		}
		// A topic-fed instance is not dispatched per request, so it pays a
		// microsecond of hand-off per message, not faas's 1 ms default.
		if err := p.Tenant("analytics").Register("countmin", func(_ *faas.Ctx, key []byte) ([]byte, error) {
			cm.Add(string(key), 1) // one drain, serial calls: the sketch is the function's state (Fig. 3)
			if processed++; processed == events {
				doneAt = v.Now()
				done.Set()
			}
			return nil, nil
		}, faas.Config{WarmStart: time.Microsecond, Prewarm: 1}); err != nil {
			panic(err)
		}
		if err := faas.BindTopic(p.FaaS, p.Pulsar, "events", "analytics", "countmin", ""); err != nil {
			panic(err)
		}
		prod, err := p.Pulsar.CreateProducer("events")
		if err != nil {
			panic(err)
		}
		start := v.Now()
		for _, k := range keys {
			if _, err := prod.SendKey(k, []byte(k)); err != nil {
				panic(err)
			}
		}
		done.Wait()
		wall = doneAt.Sub(start)
	})

	// Top keys by true count.
	type kc struct {
		k string
		c uint64
	}
	var all []kc
	for k, c := range truth {
		all = append(all, kc{k, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].k < all[j].k
	})
	table := Table{
		ID:      "E6",
		Title:   "Count-Min as a Pulsar function over a Zipf stream (Fig. 3)",
		Claim:   "§4.3.1: Pulsar functions support stateful analytics on real-time streams",
		Columns: []string{"key", "true", "estimate", "within εN"},
	}
	bound := cm.ErrorBound()
	for _, e := range all[:8] {
		est := cm.Estimate(e.k)
		table.Rows = append(table.Rows, []string{
			e.k, f("%d", e.c), f("%d", est), f("%v", est >= e.c && est-e.c <= bound),
		})
	}
	rate := float64(processed) / wall.Seconds()
	table.Notes = f("%d events processed in %v simulated (%.0f msg/s through broker+ledger); εN bound = %d", processed, wall.Round(time.Millisecond), rate, bound)
	return table
}

// E15PulsarDurability: §4.3 — Pulsar's unified queuing+pub-sub with durable,
// replicated storage and failure recovery: kill the owning broker and one
// bookie mid-stream; every acked message must still be consumed. Then
// geo-replication: a replicator mirrors a topic into a second region, where
// every published message must arrive.
func E15PulsarDurability() Table {
	p, v := core.NewVirtual(core.Options{Brokers: 3, Bookies: 4})
	defer v.Close()
	table := Table{
		ID:      "E15",
		Title:   "Message durability across broker and bookie failures",
		Claim:   "§4.3: brokers are stateless (ownership migrates); bookies replicate entries (quorum survives failures)",
		Columns: []string{"phase", "published", "received", "lost"},
	}
	var geoNote string
	v.Run(func() {
		if err := p.Pulsar.CreateTopic("t", 0); err != nil {
			panic(err)
		}
		prod, err := p.Pulsar.CreateProducer("t")
		if err != nil {
			panic(err)
		}
		cons, err := p.Pulsar.Subscribe("t", "s", pulsar.Exclusive, pulsar.Earliest)
		if err != nil {
			panic(err)
		}
		recvAll := func(cons *pulsar.Consumer) map[int64]bool {
			seen := map[int64]bool{}
			for {
				m, ok := cons.Receive(50 * time.Millisecond)
				if !ok {
					return seen
				}
				seen[m.Seq] = true
				_ = cons.Ack(m)
			}
		}

		// Phase 1: steady state.
		pub := 0
		for i := 0; i < 100; i++ {
			if _, err := prod.Send([]byte{byte(i)}); err == nil {
				pub++
			}
		}
		got := recvAll(cons)
		table.Rows = append(table.Rows, []string{"steady", f("%d", pub), f("%d", len(got)), f("%d", pub-len(got))})

		// Phase 2: kill the owning broker; keep publishing.
		if data, held := p.Coord.LockHolder("/pulsar/owners/t"); held {
			if b, ok := p.Pulsar.Broker(string(data)); ok {
				b.SetDown(true)
			}
		}
		pub = 0
		for i := 0; i < 100; i++ {
			if _, err := prod.Send([]byte{byte(i)}); err == nil {
				pub++
			}
		}
		got = recvAll(cons)
		table.Rows = append(table.Rows, []string{"broker killed", f("%d", pub), f("%d", len(got)), f("%d", maxInt(0, pub-len(got)))})

		// Phase 3: kill one bookie (quorum 2/4 still intact for most stripes).
		if bk, ok := p.Ledgers.Bookie("bookie-0"); ok {
			bk.SetDown(true)
		}
		pub = 0
		for i := 0; i < 100; i++ {
			if _, err := prod.Send([]byte{byte(i)}); err == nil {
				pub++
			}
		}
		got = recvAll(cons)
		table.Rows = append(table.Rows, []string{"bookie killed", f("%d", pub), f("%d", len(got)), f("%d", maxInt(0, pub-len(got)))})

		// Phase 4: geo-replication into a second region — its own brokers,
		// bookies and metadata on the same clock. Received is counted on the
		// remote subscription.
		west := core.New(core.Options{Clock: v})
		if err := p.Pulsar.CreateTopic("geo", 0); err != nil {
			panic(err)
		}
		if err := west.Pulsar.CreateTopic("geo", 0); err != nil {
			panic(err)
		}
		repl, err := pulsar.StartReplicator(p.Pulsar, west.Pulsar, "geo", "geo")
		if err != nil {
			panic(err)
		}
		geo, err := p.Pulsar.CreateProducer("geo")
		if err != nil {
			panic(err)
		}
		pub = 0
		for i := 0; i < 100; i++ {
			if _, err := geo.Send([]byte{byte(i)}); err == nil {
				pub++
			}
		}
		for i := 0; i < 1000 && repl.Replicated()+repl.Dropped() < int64(pub); i++ {
			v.Sleep(5 * time.Millisecond)
		}
		repl.Stop()
		remote, err := west.Pulsar.Subscribe("geo", "s", pulsar.Exclusive, pulsar.Earliest)
		if err != nil {
			panic(err)
		}
		got = recvAll(remote)
		table.Rows = append(table.Rows, []string{"geo-replicated", f("%d", pub), f("%d", len(got)), f("%d", maxInt(0, pub-len(got)))})
		geoNote = f("; geo-replicated: the replicator mirrored %d and dropped %d", repl.Replicated(), repl.Dropped())
	})
	table.Notes = "received counts unacked redeliveries as well; 'lost' must be 0 in every phase" + geoNote
	return table
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
