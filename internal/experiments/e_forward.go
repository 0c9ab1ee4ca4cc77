package experiments

import (
	"fmt"
	"time"

	"repro/internal/blob"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/ledger"
	"repro/internal/scheduler"
	"repro/internal/simclock"
)

// E19Security: §6 "Security" — "functions of different tenants may run on
// the same physical hardware, increasing the likelihood of traditional
// side-channel attacks like Rowhammer". Compare placement policies by their
// cross-tenant co-residency exposure and machine cost: consolidation and
// isolation pull in opposite directions.
func E19Security() Table {
	table := Table{
		ID:      "E19",
		Title:   "Cross-tenant co-residency exposure vs machine cost",
		Claim:   "§6: co-residency creates side-channel exposure; hardware-level tenant isolation trades machines for safety",
		Columns: []string{"policy", "machines", "cross-tenant pairs", "mean util"},
	}
	capVec := scheduler.Resources{CPU: 4000, MemMB: 16384}
	demand := scheduler.Resources{CPU: 900, MemMB: 2048} // 4 per machine
	const tenants, perTenant = 6, 8
	for _, pol := range []scheduler.Policy{scheduler.FirstFit{}, scheduler.Complementary{}, scheduler.TenantDedicated{}} {
		c := scheduler.NewCluster(capVec, pol)
		// Interleaved arrivals across tenants — the realistic shared-pool
		// admission order.
		for i := 0; i < tenants*perTenant; i++ {
			tenant := fmt.Sprintf("tenant-%d", i%tenants)
			if _, err := c.PlaceTenant(fmt.Sprintf("i%d", i), tenant, demand); err != nil {
				panic(err)
			}
		}
		table.Rows = append(table.Rows, []string{
			pol.Name(), f("%d", c.ActiveMachines()), f("%d", c.CrossTenantPairs()), f("%.2f", c.MeanUtilization()),
		})
	}
	table.Notes = "tenant-dedicated must reach 0 exposure; the machine-count delta is the price of hardware isolation"
	return table
}

// E20SLA: §6 "SLA Guarantees" — "higher resource sharing also leads to
// decreased performance predictability"; future bin-packing should ensure
// co-located functions "do not contend with each other". Invocations suffer
// a slowdown per same-dominant co-resident; compare packing policies' tail
// latency on a fixed fleet.
func E20SLA() Table {
	table := Table{
		ID:      "E20",
		Title:   "Invocation tail latency under contention-aware placement",
		Claim:   "§6: packing density trades machines for tail latency; complementary packing recovers predictability",
		Columns: []string{"policy", "machines used", "p50", "p99", "p99/p50"},
	}
	for _, pol := range []scheduler.Policy{scheduler.FirstFit{}, scheduler.Complementary{}, scheduler.WorstFit{}} {
		p, v := core.NewVirtual(core.Options{})
		cluster := scheduler.NewCluster(scheduler.Resources{CPU: 4000, MemMB: 16384}, pol)
		cluster.Grow(16) // the provider fleet exists before placements
		p.FaaS.AttachCluster(cluster, 0.5)

		reg := func(name string, demand scheduler.Resources) {
			if err := p.Tenant("acme").Register(name, func(ctx *faas.Ctx, _ []byte) ([]byte, error) {
				ctx.Work(100 * time.Millisecond)
				return nil, nil
			}, faas.Config{Demand: demand, ColdStart: time.Millisecond, KeepAlive: time.Hour, MaxRetries: -1}); err != nil {
				panic(err)
			}
		}
		reg("cpu-fn", scheduler.Resources{CPU: 1900, MemMB: 512})
		reg("mem-fn", scheduler.Resources{CPU: 150, MemMB: 7500})

		var durations []time.Duration
		v.Run(func() {
			repA := faas.Drive(p.FaaS, "acme", "cpu-fn", nil, make([]time.Duration, 8))
			repB := faas.Drive(p.FaaS, "acme", "mem-fn", nil, make([]time.Duration, 8))
			repA.Wait()
			repB.Wait()
			for _, r := range append(repA.Results(), repB.Results()...) {
				durations = append(durations, r.Latency)
			}
		})
		used := 0
		for _, m := range cluster.Machines() {
			if m.Used != (scheduler.Resources{}) {
				used++
			}
		}
		p50 := faas.Percentile(durations, 50)
		p99 := faas.Percentile(durations, 99)
		v.Close()
		table.Rows = append(table.Rows, []string{
			pol.Name(), f("%d", used),
			p50.Round(time.Millisecond).String(), p99.Round(time.Millisecond).String(),
			f("%.2f", float64(p99)/float64(p50)),
		})
	}
	table.Notes = "slowdown model: +50% work per same-dominant co-resident; 100ms nominal function"
	return table
}

// E21TieredStorage: §4.3 lists tiered storage among Pulsar's key features:
// older segments move to cheap object storage, transparently readable.
// Compare hot (bookie) vs offloaded (blob) read latency and the bookie
// space reclaimed.
func E21TieredStorage() Table {
	v := simclock.NewVirtual()
	defer v.Close()
	meta := coord.NewStore(v)
	sys := ledger.NewSystem(v, meta)
	for i := 0; i < 3; i++ {
		sys.AddBookie(ledger.NewBookie(f("bookie-%d", i)))
	}
	sys.AppendLatency = time.Millisecond
	sys.ReadLatency = time.Millisecond // bookie RPC
	store := blob.New(v, nil, blob.S3Latency)

	table := Table{
		ID:      "E21",
		Title:   "Ledger reads: hot bookie tier vs offloaded blob tier",
		Claim:   "§4.3: tiered storage keeps old segments readable on cheap object storage while freeing bookie space",
		Columns: []string{"tier", "first-entry latency", "full replay", "bookie entries held"},
	}
	const entries = 200
	v.Run(func() {
		if err := store.CreateBucket("tier", "pulsar"); err != nil {
			panic(err)
		}
		w, err := sys.CreateLedger(3, 2, 2)
		if err != nil {
			panic(err)
		}
		payload := make([]byte, 512)
		for i := 0; i < entries; i++ {
			if _, err := w.Append(payload); err != nil {
				panic(err)
			}
		}
		if err := w.Close(); err != nil {
			panic(err)
		}
		bookieHeld := func() int {
			n := 0
			for i := 0; i < 3; i++ {
				b, _ := sys.Bookie(f("bookie-%d", i))
				n += b.EntryCount()
			}
			return n
		}

		measure := func(label string) {
			start := v.Now()
			r, err := sys.OpenTiered(w.ID(), store)
			if err != nil {
				panic(err)
			}
			if _, err := r.Read(0); err != nil {
				panic(err)
			}
			first := v.Now().Sub(start)
			for i := int64(1); i < entries; i++ {
				if _, err := r.Read(i); err != nil {
					panic(err)
				}
			}
			table.Rows = append(table.Rows, []string{
				label, first.String(), v.Now().Sub(start).String(), f("%d", bookieHeld()),
			})
		}
		measure("hot (bookies)")
		if err := sys.Offload(w.ID(), store, "tier"); err != nil {
			panic(err)
		}
		measure("cold (blob)")
	})
	table.Notes = "cold first access pays the blob fetch of the whole segment (then reads from the cached copy); bookie space drops to zero after offload"
	return table
}

// E22Provisioned: §6 "SLA Guarantees" / [112] — provisioned concurrency
// (pre-warmed instances) removes cold starts from the request path for
// sporadic traffic, at a standing capacity cost.
func E22Provisioned() Table {
	table := Table{
		ID:      "E22",
		Title:   "Sporadic traffic: on-demand vs provisioned concurrency",
		Claim:   "§6/[112]: keeping provisioned instances warm removes cold-start latency at a standing cost",
		Columns: []string{"config", "invocations", "cold", "p50", "p99", "standing instances"},
	}
	const gap = 15 * time.Minute // beyond the 10m keep-alive: every hit is cold on-demand
	arrivals := make([]time.Duration, 20)
	for i := range arrivals {
		arrivals[i] = time.Duration(i) * gap
	}
	for _, prewarm := range []int{0, 2} {
		p, v := core.NewVirtual(core.Options{})
		if err := p.Tenant("t").Register("spiky", func(ctx *faas.Ctx, _ []byte) ([]byte, error) {
			ctx.Work(20 * time.Millisecond)
			return nil, nil
		}, faas.Config{Prewarm: prewarm, ColdStart: 400 * time.Millisecond, WarmStart: time.Millisecond}); err != nil {
			panic(err)
		}
		v.Run(func() {
			rep := faas.Drive(p.FaaS, "t", "spiky", nil, arrivals)
			rep.Wait()
		})
		st, _ := p.FaaS.StatsFor("t", "spiky")
		v.Close()
		cfg := "on-demand"
		if prewarm > 0 {
			cfg = f("provisioned=%d", prewarm)
		}
		table.Rows = append(table.Rows, []string{
			cfg, f("%d", st.Invocations), f("%d", st.ColdStarts),
			faas.Percentile(st.Durations, 50).Round(time.Millisecond).String(),
			faas.Percentile(st.Durations, 99).Round(time.Millisecond).String(),
			f("%d", st.WarmIdle),
		})
	}
	table.Notes = "provisioned instances never reap below the floor: zero cold starts, but capacity is held between requests"
	return table
}
