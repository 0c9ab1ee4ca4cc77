package experiments

import (
	"reflect"
	"sync"
	"time"

	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/scheduler"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// elasticDigest is everything one seeded burst run produced. Two runs with
// the same seed must be identical — the control loop is deterministic under
// the virtual clock.
type elasticDigest struct {
	Served       int
	Cold         int
	SteadyP99    time.Duration
	BurstP99     time.Duration
	Converge     time.Duration
	PeakDesired  int
	PeakMachines int
	FinalPool    int
	FinalMach    int
	Grown        int64
	Drained      int64
}

// fairnessDigest compares a well-behaved tenant's latency with and without a
// flooding neighbour under fair-share admission.
type fairnessDigest struct {
	VictimSoloP99 time.Duration
	VictimP99     time.Duration
	VictimShed    int64
	AttackerShed  int64
	AttackerOK    int
}

// E27Elastic: §4.1 "resource elasticity" / §6 SLAs — the elastic control
// plane under a 10× open-loop burst. The autoscaler must panic up so p99
// re-converges to ≤2× the steady-state value within the measured window,
// then scale instances and machines back to zero after idle; fair-share
// admission must shed a flooding tenant while a well-behaved
// tenant's p99 stays within 1.5× of running alone.
func E27Elastic() Table {
	const seed = 11
	d1 := runBurstConverge(seed)
	d2 := runBurstConverge(seed)
	fair := runFairness(seed)
	deterministic := reflect.DeepEqual(d1, d2)

	conv := "never"
	if d1.Converge >= 0 {
		conv = f("%v", d1.Converge)
	}
	table := Table{
		ID:      "E27",
		Title:   "Elastic control plane: burst convergence, scale-to-zero, fair-share shedding",
		Claim:   "§4.1/§6: the platform allocates on bursts and de-allocates to zero on idle, while per-tenant admission keeps one tenant's flood from another's latency",
		Columns: []string{"measure", "value", "criterion", "pass"},
		Rows: [][]string{
			{"steady p99", f("%v", d1.SteadyP99), "baseline", "-"},
			{"burst p99", f("%v", d1.BurstP99), "cold starts expected", "-"},
			{"re-converged ≤2x steady in", conv, "within window", pass(d1.Converge >= 0)},
			{"peak desired instances", f("%d", d1.PeakDesired), "> 1 (panic scaled up)", pass(d1.PeakDesired > 1)},
			{"peak machines", f("%d", d1.PeakMachines), "> 1 (fleet grew)", pass(d1.PeakMachines > 1)},
			{"pool after idle", f("%d", d1.FinalPool), "0 (scale-to-zero)", pass(d1.FinalPool == 0)},
			{"machines after idle", f("%d", d1.FinalMach), "0 (fleet drained)", pass(d1.FinalMach == 0)},
			{"victim p99 solo / contended", f("%v / %v", fair.VictimSoloP99, fair.VictimP99), "≤1.5x solo", pass(fair.VictimP99 <= fair.VictimSoloP99*3/2)},
			{"attacker shed / victim shed", f("%d / %d", fair.AttackerShed, fair.VictimShed), "shed > 0 / 0", pass(fair.AttackerShed > 0 && fair.VictimShed == 0)},
		},
	}
	table.Notes = f("seed %d: %d served (%d cold); autoscaler drained %d surplus machines after idle; identical rerun digest: %v",
		seed, d1.Served, d1.Cold, d1.Drained, deterministic)
	return table
}

func pass(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// runBurstConverge drives one seeded 10× burst through a full platform with
// the autoscaler on: 2 rps steady, 20 rps for 10s, steady again, then idle.
func runBurstConverge(seed int64) elasticDigest {
	const (
		baseRPS   = 2.0
		burstAt   = 10 * time.Second
		burstFor  = 10 * time.Second
		window    = 40 * time.Second
		steadyCut = 10 * time.Second
	)
	p, v := core.NewVirtual(core.Options{})
	defer v.Close()
	p.FaaS.AttachCluster(scheduler.NewCluster(scheduler.Resources{CPU: 4000, MemMB: 16384}, scheduler.FirstFit{}), 0)
	demo := p.Tenant("demo")

	// Steady load is uniform (500ms spacing: no accidental concurrency, so
	// the baseline p99 is a warm invoke); the 10× surge is Poisson on top.
	// +500µs keeps every arrival off the controller's 1s tick grid: an
	// arrival can then never race a same-instant control evaluation, so the
	// virtual-clock run is order-deterministic.
	arrivals := workload.OffsetArrivals(workload.UniformArrivals(workload.Constant(baseRPS), window), 500*time.Microsecond)
	surge := workload.OffsetArrivals(workload.Arrivals(workload.Constant(9*baseRPS), burstFor, seed), burstAt+500*time.Microsecond)
	arrivals = append(arrivals, surge...)

	var (
		mu        sync.Mutex
		wg        = simclock.NewGroup(v)
		latAll    []time.Duration
		perSecond = make([][]time.Duration, int(window/time.Second)+1)
		d         elasticDigest
	)
	var ctrl *autoscale.Controller
	v.Run(func() {
		if err := demo.Register("api", func(ctx *faas.Ctx, _ []byte) ([]byte, error) {
			ctx.Work(250 * time.Millisecond)
			return nil, nil
		}, faas.Config{
			MemoryMB:  128,
			ColdStart: time.Second,
			KeepAlive: 8 * time.Second,
		}); err != nil {
			panic(err)
		}
		ctrl = p.EnableAutoscale(autoscale.Config{
			TickInterval:     time.Second,
			StableWindow:     20 * time.Second,
			PanicWindow:      3 * time.Second,
			ScaleToZeroAfter: 5 * time.Second,
			DrainDelay:       4 * time.Second,
		})
		defer p.Close()

		for _, at := range arrivals {
			wg.Go(func() {
				v.Sleep(at)
				res, err := demo.Invoke("api", nil)
				if err != nil {
					return
				}
				mu.Lock()
				latAll = append(latAll, res.Latency)
				if sec := int(at / time.Second); sec < len(perSecond) {
					perSecond[sec] = append(perSecond[sec], res.Latency)
				}
				if res.Cold {
					d.Cold++
				}
				mu.Unlock()
			})
		}
		// Sample the controller's view once per tick while the burst runs.
		wg.Go(func() {
			for i := 0; i < int(window/time.Second); i++ {
				v.Sleep(time.Second)
				st := ctrl.Status()
				if st.Machines > d.PeakMachines {
					d.PeakMachines = st.Machines
				}
				for _, fs := range st.Functions {
					if fs.Name == "api" && fs.Desired > d.PeakDesired {
						d.PeakDesired = fs.Desired
					}
				}
			}
		})
		wg.Wait()

		v.Sleep(30 * time.Second) // idle: scale-to-zero, then drain
		st := ctrl.Status()
		d.FinalMach = st.Machines
		d.FinalPool, _ = p.FaaS.PoolTarget(demo.Name(), "api")
	})

	d.Served = len(latAll)
	// Steady p99 from the warm pre-burst phase (skip the first second's
	// unavoidable cold start), then convergence of the per-second series
	// measured from burst end.
	var steady []time.Duration
	for sec := 1; sec < int(steadyCut/time.Second); sec++ {
		steady = append(steady, perSecond[sec]...)
	}
	d.SteadyP99 = faas.Percentile(steady, 99)
	var burst []time.Duration
	for sec := int(burstAt / time.Second); sec < int((burstAt+burstFor)/time.Second); sec++ {
		burst = append(burst, perSecond[sec]...)
	}
	d.BurstP99 = faas.Percentile(burst, 99)
	series := make([]time.Duration, len(perSecond))
	for i, b := range perSecond {
		series[i] = faas.Percentile(b, 99)
	}
	// Measured from burst start: how long cold-start pain lasted before the
	// panic-scaled pool brought p99 back under 2× the warm baseline.
	d.Converge = workload.ConvergenceTime(series, d.SteadyP99, 2, burstAt)
	d.Grown = p.Obs.CounterValue("autoscale.machines.grown")
	d.Drained = p.Obs.CounterValue("autoscale.machines.drained")
	return d
}

// runFairness measures a well-behaved tenant's p99 twice — alone, then next
// to a tenant flooding 20× the platform's admitted rate — under fair-share
// admission. The flood must be shed, not absorbed into the
// victim's latency.
func runFairness(seed int64) fairnessDigest {
	const (
		window    = 20 * time.Second
		victimRPS = 4.0
		floodRPS  = 100.0
	)
	victimLat := func(withAttacker bool) ([]time.Duration, int64, int64, int) {
		p, v := core.NewVirtual(core.Options{})
		defer v.Close()
		p.FaaS.SetAdmission(faas.AdmissionConfig{
			RatePerSecond: 12,
			Burst:         6,
			MaxQueue:      8,
			MaxWait:       500 * time.Millisecond,
		})
		victim := p.Tenant("victim")
		attacker := p.Tenant("attacker")

		var (
			mu   sync.Mutex
			wg   = simclock.NewGroup(v)
			lats []time.Duration
			aOK  int
		)
		v.Run(func() {
			h := func(ctx *faas.Ctx, _ []byte) ([]byte, error) {
				ctx.Work(50 * time.Millisecond)
				return nil, nil
			}
			cfg := faas.Config{MemoryMB: 128, ColdStart: 50 * time.Millisecond}
			if err := victim.Register("v", h, cfg); err != nil {
				panic(err)
			}
			if err := attacker.Register("a", h, cfg); err != nil {
				panic(err)
			}
			drive := func(t *core.TenantHandle, fn string, arrivals []time.Duration, ok *int) {
				for _, at := range arrivals {
					wg.Go(func() {
						v.Sleep(at)
						res, err := t.Invoke(fn, nil)
						if err != nil {
							return
						}
						mu.Lock()
						if ok != nil {
							*ok++
						} else {
							lats = append(lats, res.Latency)
						}
						mu.Unlock()
					})
				}
			}
			drive(victim, "v", workload.OffsetArrivals(workload.Arrivals(workload.Constant(victimRPS), window, seed), 300*time.Microsecond), nil)
			if withAttacker {
				drive(attacker, "a", workload.OffsetArrivals(workload.Arrivals(workload.Constant(floodRPS), window, seed+1), 700*time.Microsecond), &aOK)
			}
			wg.Wait()
		})
		return lats, victim.Shed(), attacker.Shed(), aOK
	}

	var d fairnessDigest
	solo, _, _, _ := victimLat(false)
	d.VictimSoloP99 = faas.Percentile(solo, 99)
	contended, vShed, aShed, aOK := victimLat(true)
	d.VictimP99 = faas.Percentile(contended, 99)
	d.VictimShed = vShed
	d.AttackerShed = aShed
	d.AttackerOK = aOK
	return d
}
