package experiments

import (
	"fmt"
	"time"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/jiffy"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// E4EphemeralState: §4.4 "Existing persistent stores unfortunately do not
// provide the required performance for such exchange". Producer→consumer
// state handoff through Jiffy vs the blob store, across payload sizes.
func E4EphemeralState() Table {
	table := Table{
		ID:      "E4",
		Title:   "Inter-task state exchange: Jiffy vs persistent blob store",
		Claim:   "§4.4: persistent stores lack the performance ephemeral state exchange needs",
		Columns: []string{"payload", "jiffy put+get", "blob put+get", "speedup"},
	}
	for _, size := range []int{1 << 10, 64 << 10, 1 << 20} {
		p, v := core.NewVirtual(core.Options{JiffyBlockSize: 4 << 20})
		payload := workload.Payload(size, 3)
		var jiffyDur, blobDur time.Duration
		v.Run(func() {
			ns, err := p.Jiffy.CreateNamespace("/exchange", jiffy.NamespaceOptions{Lease: -1})
			if err != nil {
				panic(err)
			}
			if err := p.Blob.CreateBucket("exchange", "t"); err != nil {
				panic(err)
			}
			const reps = 20
			start := v.Now()
			for i := 0; i < reps; i++ {
				key := f("k%d", i)
				if err := ns.Put(key, payload); err != nil {
					panic(err)
				}
				if _, err := ns.Get(key); err != nil {
					panic(err)
				}
			}
			jiffyDur = v.Now().Sub(start) / reps
			start = v.Now()
			for i := 0; i < reps; i++ {
				key := f("k%d", i)
				if _, err := p.Blob.Put("exchange", key, payload, blob.PutOptions{}); err != nil {
					panic(err)
				}
				if _, _, err := p.Blob.Get("exchange", key); err != nil {
					panic(err)
				}
			}
			blobDur = v.Now().Sub(start) / reps
		})
		v.Close()
		table.Rows = append(table.Rows, []string{
			fmtBytes(size), jiffyDur.String(), blobDur.String(),
			f("%.1fx", float64(blobDur)/float64(jiffyDur)),
		})
	}
	table.Notes = "latency models: jiffy ~200µs/op memory-speed; blob ~20ms/op persistent store ([124],[125])"
	return table
}

// E5Isolation: §4.4 "a single global address space ... precludes isolation
// guarantees for scaling memory resources in multi-tenant settings, since
// adding/removing memory resources for an application requires
// re-partitioning data for the entire address-space".
func E5Isolation() Table {
	const keysPerTenant = 2000
	p, v := core.NewVirtual(core.Options{})
	defer v.Close()
	var aMoved, bMoved int
	v.Run(func() {
		a, err := p.Jiffy.CreateNamespace("/tenantA", jiffy.NamespaceOptions{Lease: -1, InitialBlocks: 8})
		if err != nil {
			panic(err)
		}
		b, err := p.Jiffy.CreateNamespace("/tenantB", jiffy.NamespaceOptions{Lease: -1, InitialBlocks: 8})
		if err != nil {
			panic(err)
		}
		for i := 0; i < keysPerTenant; i++ {
			if err := a.Put(f("a%d", i), []byte("v")); err != nil {
				panic(err)
			}
			if err := b.Put(f("b%d", i), []byte("v")); err != nil {
				panic(err)
			}
		}
		placement := map[string]int{}
		for _, k := range b.Keys() {
			placement[k] = b.BlockOf(k)
		}
		aMoved, err = a.Scale(+8)
		if err != nil {
			panic(err)
		}
		for _, k := range b.Keys() {
			if b.BlockOf(k) != placement[k] {
				bMoved++
			}
		}
	})

	// Baseline: one flat global address space holding both tenants.
	g := jiffy.NewGlobalKV(16)
	for i := 0; i < keysPerTenant; i++ {
		g.Put("tenantA", f("a%d", i), []byte("v"))
		g.Put("tenantB", f("b%d", i), []byte("v"))
	}
	moved, err := g.Scale(+8)
	if err != nil {
		panic(err)
	}

	return Table{
		ID:      "E5",
		Title:   "Keys moved when tenant A scales +8 blocks (2000 keys/tenant)",
		Claim:   "§4.4: hierarchical namespaces re-partition only the scaled namespace; a global address space disrupts every tenant",
		Columns: []string{"design", "tenant A moved", "tenant B moved"},
		Rows: [][]string{
			{"jiffy namespaces", f("%d", aMoved), f("%d", bMoved)},
			{"global address space", f("%d", moved["tenantA"]), f("%d", moved["tenantB"])},
		},
		Notes: "tenant B must be untouched under namespaces and disrupted under the global space",
	}
}

// E18Leases: §4.4 "lifetime of shared state may be much longer than that of
// the producer task: it is tied to when data is consumed" — namespaces
// decouple the two via leases, with notifications signalling consumers.
// State that must outlive its lease, or its memory node, goes to the flush
// tier: a namespace flushed to the blob store on expiry, and one
// checkpointed there and rematerialized after its memory node crashes.
func E18Leases() Table {
	p, v := core.NewVirtual(core.Options{})
	defer v.Close()
	table := Table{
		ID:      "E18",
		Title:   "State lifetime decoupled from producer via leases",
		Claim:   "§4.4: lease-based lifetime management + per-namespace notifications",
		Columns: []string{"t", "event", "state readable", "free blocks"},
	}
	row := func(at time.Duration, event string, readable bool) {
		table.Rows = append(table.Rows, []string{
			at.String(), event, f("%v", readable), f("%d", p.Jiffy.FreeBlocks()),
		})
	}
	v.Run(func() {
		notified := 0
		var expiredAt time.Duration
		ns, err := p.Jiffy.CreateNamespace("/job", jiffy.NamespaceOptions{Lease: 30 * time.Second})
		if err != nil {
			panic(err)
		}
		if err := p.Jiffy.Subscribe("/job", func(e jiffy.Event) {
			notified++
			if e.Type == jiffy.EventExpired {
				expiredAt = v.Elapsed()
			}
		}); err != nil {
			panic(err)
		}
		// Producer writes, then "dies" (never touches the namespace again).
		if err := ns.Put("result", []byte("output")); err != nil {
			panic(err)
		}
		row(v.Elapsed(), "producer wrote + exited", readable(ns))

		v.Sleep(20 * time.Second)
		// Consumer arrives within the lease, reads, and renews.
		row(v.Elapsed(), "consumer read (in lease)", readable(ns))
		if err := ns.Renew(); err != nil {
			panic(err)
		}
		renewedAt := v.Elapsed()
		v.Sleep(25 * time.Second)
		row(v.Elapsed(), "renewed lease still live", readable(ns))
		v.Sleep(40 * time.Second)
		row(v.Elapsed(), "lease expired, reclaimed", readable(ns))
		table.Notes = f("notifications fired: %d (incl. expiry); renewed at %v for 30s, expiry notified at %v",
			notified, renewedAt, expiredAt)

		// The flush tier: a bucket on the platform's blob store.
		if err := p.Blob.CreateBucket("jiffy-flush", "jiffy"); err != nil {
			panic(err)
		}
		target := jiffy.FlushTarget{Store: p.Blob, Bucket: "jiffy-flush"}
		p.Jiffy.SetFlushTarget(target)

		// A namespace flushed on expiry: its consumer arrives after the
		// lease and reads the value back from the blob tier.
		out, err := p.Jiffy.CreateNamespace("/out", jiffy.NamespaceOptions{Lease: 10 * time.Second, FlushOnExpiry: true})
		if err != nil {
			panic(err)
		}
		if err := out.Put("result", []byte("output")); err != nil {
			panic(err)
		}
		v.Sleep(20 * time.Second) // expiry at 10s flushed the namespace
		flushed, _ := jiffy.Flushed(target, "/out", "result")
		row(v.Elapsed(), "lease expired, read from flush tier", string(flushed) == "output" && !readable(out))

		// A checkpointed namespace outlives its memory: every node crashes
		// and restarts empty, and the namespace rematerializes from the
		// checkpoint.
		ckpt, err := p.Jiffy.CreateNamespace("/ckpt", jiffy.NamespaceOptions{Lease: -1})
		if err != nil {
			panic(err)
		}
		if err := ckpt.Put("result", []byte("output")); err != nil {
			panic(err)
		}
		if _, err := ckpt.Checkpoint(); err != nil {
			panic(err)
		}
		for _, id := range p.Jiffy.NodeIDs() {
			if _, _, err := p.Jiffy.CrashNode(id); err != nil {
				panic(err)
			}
		}
		lost := !readable(ckpt)
		for _, id := range p.Jiffy.NodeIDs() {
			if err := p.Jiffy.RestartNode(id); err != nil {
				panic(err)
			}
		}
		restored, err := ckpt.Rematerialize()
		if err != nil {
			panic(err)
		}
		row(v.Elapsed(), "memory crashed, rematerialized", lost && readable(ckpt))
		table.Notes += f("; flush tier: %d key(s) rematerialized from the checkpoint", restored)
	})
	return table
}

func readable(ns *jiffy.Namespace) bool {
	_, err := ns.Get("result")
	return err == nil
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

var _ = simclock.Epoch
