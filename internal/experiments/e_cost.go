package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/billing"
	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/scheduler"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// E1CostEfficiency: §2 "users only pay for the resources they actually use
// ... in contrast to the server-centric model, where the users have to
// reserve server resources regardless of whether or not they use it", and
// §3.2 "peak load being several times higher than the mean".
//
// A bursty workload (fixed peak, varying peak/mean ratio) is billed two
// ways: fine-grained serverless (GB-seconds + requests) vs a VM fleet
// reserved for the peak. The serverless advantage must grow with the
// peak/mean ratio.
func E1CostEfficiency() Table {
	const (
		window   = 5 * time.Minute
		peakRPS  = 8.0
		period   = time.Minute
		workDur  = 100 * time.Millisecond
		memoryMB = 512
		perVMRPS = 10.0 // one VM sustains this
	)
	table := Table{
		ID:      "E1",
		Title:   "Serverless vs reserved cost under bursty load",
		Claim:   "§2/§6: fine-grained billing means paying only for use; the gap vs peak-provisioned reservation grows with peak/mean",
		Columns: []string{"peak/mean", "invocations", "serverless$", "reserved$", "savings"},
	}
	for _, ratio := range []int{1, 2, 5, 10, 50} {
		p, v := core.NewVirtual(core.Options{})
		burst := period / time.Duration(ratio)
		rf := workload.Bursty(0, peakRPS, period, burst)
		if ratio == 1 {
			rf = workload.Constant(peakRPS)
		}
		arrivals := workload.Arrivals(rf, window, 1)

		handler := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			ctx.Work(workDur)
			return nil, nil
		}
		var nInvocations int
		v.Run(func() {
			if err := p.Tenant("acme").Register("api", handler, faas.Config{MemoryMB: memoryMB}); err != nil {
				panic(err)
			}
			rep := faas.Drive(p.FaaS, "acme", "api", nil, arrivals)
			rep.Wait()
			nInvocations = len(rep.Results())
		})
		v.Close()

		serverless := p.Tenant("acme").Invoice().Total
		reserved := billing.ReservedCost(billing.VMsForPeak(peakRPS, perVMRPS), window, p.Pricing)
		savings := "-"
		if serverless > 0 {
			savings = f("%.1fx", reserved/serverless)
		}
		table.Rows = append(table.Rows, []string{
			f("%d", ratio), f("%d", nInvocations),
			f("$%.4f", serverless), f("$%.4f", reserved), savings,
		})
	}
	table.Notes = "reserved fleet sized for peak (§3.2); serverless bills 100ms granules of actual use"
	return table
}

// E2Elasticity: §2 "the platform should be able to allocate (and
// de-allocate) resources for an application based on its workload
// requirements over time", including scale to (and from) zero.
func E2Elasticity() Table {
	p, v := core.NewVirtual(core.Options{})
	defer v.Close()
	const window = 20 * time.Minute
	rf := workload.Bursty(0, 6, 8*time.Minute, 2*time.Minute)
	arrivals := workload.Arrivals(rf, window, 2)

	v.Run(func() {
		if err := p.Tenant("t").Register("app", func(ctx *faas.Ctx, _ []byte) ([]byte, error) {
			ctx.Work(500 * time.Millisecond)
			return nil, nil
		}, faas.Config{KeepAlive: time.Minute}); err != nil {
			panic(err)
		}
		rep := faas.Drive(p.FaaS, "t", "app", nil, arrivals)
		rep.Wait()
		v.Sleep(3 * time.Minute) // idle tail: the keep-alive timer reaps every instance
	})
	st, _ := p.FaaS.StatsFor("t", "app")

	table := Table{
		ID:      "E2",
		Title:   "Instance footprint tracks offered load (scale from/to zero)",
		Claim:   "§2: demand-driven execution — fine-grained resource elasticity over time",
		Columns: []string{"t(min)", "offered rps", "instances"},
	}
	for minute := 0; minute <= int(window/time.Minute)+3; minute += 2 {
		at := simclock.Epoch.Add(time.Duration(minute) * time.Minute)
		inst := 0
		for _, pt := range st.Timeline {
			if !pt.At.After(at) {
				inst = pt.Instances
			}
		}
		rps := 0.0
		if time.Duration(minute)*time.Minute < window {
			rps = rf(time.Duration(minute) * time.Minute)
		}
		table.Rows = append(table.Rows, []string{f("%d", minute), f("%.0f", rps), f("%d", inst)})
	}
	// Render the elasticity timeline as a figure, paper-style.
	var labels []string
	var vals []float64
	for _, row := range table.Rows {
		labels = append(labels, row[0]+"min")
		var inst float64
		fmt.Sscanf(row[2], "%f", &inst)
		vals = append(vals, inst)
	}
	table.Notes = f("cold starts: %d, peak tracked automatically, final footprint %s\ninstances over time:\n%s",
		st.ColdStarts, table.Rows[len(table.Rows)-1][2], asciiChart(labels, vals, 40, " instances"))
	return table
}

// E3ColdStart: §5.2 / [112] "warm serverless executions are within an
// acceptable latency range, while cold starts add significant overhead".
// Sweep the inter-arrival gap: once it exceeds the keep-alive window every
// invocation is cold.
func E3ColdStart() Table {
	table := Table{
		ID:      "E3",
		Title:   "Cold vs warm start latency vs inter-arrival gap",
		Claim:   "[112]/§5.2: warm executions acceptable, cold starts add significant overhead",
		Columns: []string{"gap", "invocations", "cold", "cold-frac", "p50 latency", "p99 latency"},
	}
	const keepAlive = 10 * time.Minute
	for _, gap := range []time.Duration{time.Second, time.Minute, 5 * time.Minute, 12 * time.Minute} {
		p, v := core.NewVirtual(core.Options{})
		const n = 40
		var rep *faas.DriveReport
		arrivals := make([]time.Duration, n)
		for i := range arrivals {
			arrivals[i] = time.Duration(i) * gap
		}
		v.Run(func() {
			if err := p.Tenant("t").Register("fn", func(ctx *faas.Ctx, _ []byte) ([]byte, error) {
				ctx.Work(20 * time.Millisecond)
				return nil, nil
			}, faas.Config{KeepAlive: keepAlive, ColdStart: 250 * time.Millisecond, WarmStart: time.Millisecond}); err != nil {
				panic(err)
			}
			rep = faas.Drive(p.FaaS, "t", "fn", nil, arrivals)
			rep.Wait()
		})
		st, _ := p.FaaS.StatsFor("t", "fn")
		v.Close()
		table.Rows = append(table.Rows, []string{
			gap.String(), f("%d", st.Invocations), f("%d", st.ColdStarts),
			f("%.2f", float64(st.ColdStarts)/float64(st.Invocations)),
			faas.Percentile(latencies(rep), 50).String(),
			faas.Percentile(latencies(rep), 99).String(),
		})
	}
	table.Notes = "keep-alive 10m: gaps beyond it make every invocation cold (~13x warm latency here)"
	return table
}

// latencies lists the end-to-end latency of every invocation rep drove.
func latencies(rep *faas.DriveReport) (out []time.Duration) {
	for _, r := range rep.Results() {
		out = append(out, r.Latency)
	}
	return out
}

// E11Multiplexing: §6 "the cloud provider benefits due to the cost-savings
// arising from higher degree of resource multiplexing and increased
// resource utilization". Tenants with staggered bursts share one pool; the
// shared pool needs far fewer machine-hours than per-tenant dedicated
// fleets.
func E11Multiplexing() Table {
	table := Table{
		ID:      "E11",
		Title:   "Shared pool vs dedicated fleets across staggered tenants",
		Claim:   "§6: providers win through resource multiplexing and higher utilization",
		Columns: []string{"tenants", "dedicated mach-h", "shared mach-h", "saving", "mach-h saved"},
	}
	const (
		window   = 4 * time.Hour
		step     = time.Minute
		perVMRPS = 10.0
	)
	for _, k := range []int{2, 4, 8} {
		// Tenant i bursts during its own slice of each hour.
		rfs := make([]workload.RateFunc, k)
		for i := range rfs {
			rfs[i] = workload.Shift(workload.Bursty(0, 40, time.Hour, time.Hour/time.Duration(k)), time.Duration(i)*time.Hour/time.Duration(k))
		}
		demand := func(rf workload.RateFunc, t time.Duration) int {
			return int((rf(t) + perVMRPS - 1) / perVMRPS)
		}
		// Dedicated, server-centric: each tenant reserves its own peak for
		// the whole window (§2: "users have to reserve server resources
		// regardless of whether or not they use it").
		var dedicated float64
		for _, rf := range rfs {
			peakVMs := billingVMs(workload.PeakRate(rf, window), perVMRPS)
			dedicated += float64(peakVMs) * window.Hours()
		}
		// Shared, provider-side elastic pool: machine-hours actually
		// occupied when every tenant's instantaneous demand is packed onto
		// one cluster.
		var shared float64
		cluster := scheduler.NewCluster(scheduler.Resources{CPU: 1000}, scheduler.FirstFit{})
		instSeq := 0
		var live []string
		for t := time.Duration(0); t < window; t += step {
			total := 0
			for _, rf := range rfs {
				total += demand(rf, t)
			}
			for _, id := range live {
				_ = cluster.Release(id)
			}
			live = live[:0]
			for j := 0; j < total; j++ {
				id := fmt.Sprintf("i%d", instSeq)
				instSeq++
				if _, err := cluster.Place(id, scheduler.Resources{CPU: 1000}); err == nil {
					live = append(live, id)
				}
			}
			shared += float64(cluster.ActiveMachines()) * step.Hours()
		}
		saving := "-"
		if shared > 0 {
			saving = f("%.1fx", dedicated/shared)
		}
		savedPct := 0.0
		if dedicated > 0 {
			savedPct = 100 * (1 - shared/dedicated)
		}
		table.Rows = append(table.Rows, []string{
			f("%d", k), f("%.1f", dedicated), f("%.1f", shared), saving, f("%.0f%%", savedPct),
		})
	}
	table.Notes = "staggered bursts: the shared pool serves each tenant's burst with the same machines"
	return table
}

func billingVMs(peakRPS, perVMRPS float64) int {
	return billing.VMsForPeak(peakRPS, perVMRPS)
}

// E12BinPacking: §6 future work — "bin-packing techniques that pack
// different functions together based on heuristics that ensure performance
// isolation, e.g., by packing together functions that have complementary
// ... resource requirements, ensuring they do not contend".
func E12BinPacking() Table {
	table := Table{
		ID:      "E12",
		Title:   "Placement policies: machines, utilization, contention",
		Claim:   "§6: packing complementary (CPU-heavy with memory-heavy) functions improves isolation without more machines",
		Columns: []string{"policy", "machines", "mean util", "contention"},
	}
	capVec := scheduler.Resources{CPU: 4000, MemMB: 16384}
	// A churning fleet: functions arrive in type-skewed phases and depart
	// after a bounded lifetime. Departures fragment machines, giving the
	// policies real choices (a fresh empty cluster forces every policy
	// into the same packing). Seeded, so all policies see the identical
	// event sequence.
	type ev struct {
		demand   scheduler.Resources
		lifetime int
	}
	rng := rand.New(rand.NewSource(99))
	const events = 500
	seq := make([]ev, events)
	for i := range seq {
		// Bursty phases: 20-event runs of one dominant type.
		cpuPhase := (i/20)%2 == 0
		if cpuPhase {
			seq[i] = ev{scheduler.Resources{CPU: 1500 + float64(rng.Intn(600)), MemMB: 1024}, 8 + rng.Intn(20)}
		} else {
			seq[i] = ev{scheduler.Resources{CPU: 200, MemMB: 6000 + float64(rng.Intn(2500))}, 8 + rng.Intn(20)}
		}
	}
	for _, pol := range []scheduler.Policy{scheduler.FirstFit{}, scheduler.BestFit{}, scheduler.WorstFit{}, scheduler.Complementary{}} {
		c := scheduler.NewCluster(capVec, pol)
		expiry := map[int][]string{}
		var contentionSum, utilSum float64
		peakMachines := 0
		for i, e := range seq {
			for _, id := range expiry[i] {
				_ = c.Release(id)
			}
			id := fmt.Sprintf("i%d", i)
			if _, err := c.Place(id, e.demand); err != nil {
				panic(err)
			}
			expiry[i+e.lifetime] = append(expiry[i+e.lifetime], id)
			contentionSum += float64(c.Contention())
			utilSum += c.MeanUtilization()
			if m := c.ActiveMachines(); m > peakMachines {
				peakMachines = m
			}
		}
		table.Rows = append(table.Rows, []string{
			pol.Name(), f("%d", peakMachines), f("%.2f", utilSum/events), f("%.1f", contentionSum/events),
		})
	}
	table.Notes = "contention = time-averaged same-dominant co-resident pairs over a churning, type-bursty fleet"
	return table
}
