package chaos

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/faas"
	"repro/internal/jiffy"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/simclock"
)

// autoscaleSoakResult digests one run of the FaaS-over-Jiffy soak: what the
// functions returned, what state survived, and what the control loop did.
// Same seed → identical digest, or the autoscaler has introduced
// nondeterminism into the virtual-clock stack.
type autoscaleSoakResult struct {
	log         []string
	invoked     int
	failed      int
	cold        int
	putsAcked   int
	putsOK      int
	peakDesired int
	peakMach    int
	finalPool   int
	finalMach   int
	ticks       int64
}

// runAutoscaleSoak drives a bursty FaaS workload — whose handler writes
// through the chaos-targeted Jiffy state plane — with the elastic control
// plane active, while a seeded fault schedule crashes Jiffy memory nodes.
// Replicated namespaces must absorb every crash (no failed invoke, no lost
// acked put) while the autoscaler grows, converges and scales back to zero.
func runAutoscaleSoak(t *testing.T, seed int64) autoscaleSoakResult {
	t.Helper()
	v := simclock.NewVirtual()
	defer v.Close()

	jc := jiffy.NewController(v, nil, jiffy.Config{Latency: jiffy.NoLatency, DefaultLease: -1})
	for i := 0; i < 4; i++ {
		jc.AddNode(fmt.Sprintf("mem-%d", i), 16)
	}
	fp := faas.New(v, nil)
	fp.AttachCluster(scheduler.NewCluster(scheduler.Resources{CPU: 4000, MemMB: 16384}, scheduler.FirstFit{}), 0)
	ctrl := autoscale.New(v, fp, fp.Cluster(), autoscale.Config{
		TickInterval:     time.Second,
		StableWindow:     10 * time.Second,
		PanicWindow:      2 * time.Second,
		ScaleToZeroAfter: 3 * time.Second,
		DrainDelay:       2 * time.Second,
	})
	reg := obs.New(v)
	jc.SetObs(reg)
	fp.SetObs(reg)
	ctrl.SetObs(reg)

	inj := NewInjector(v, nil, nil, jc)
	inj.SetObs(reg)
	sch := Generate(Options{
		Seed:       seed,
		Duration:   8 * time.Second,
		JiffyNodes: jc.NodeIDs(),
		Crashes:    3,
		Stragglers: 1,
		Drops:      1,
	})
	crashes := 0
	for _, e := range sch {
		if e.Kind == KindJiffy && e.Op == OpCrash {
			crashes++
		}
	}
	if crashes == 0 {
		t.Fatalf("seed %d crashes no jiffy node; pick another", seed)
	}

	res := autoscaleSoakResult{}
	v.Run(func() {
		ns, err := jc.CreateNamespace("/soak", jiffy.NamespaceOptions{Replicas: 2, InitialBlocks: 2})
		must(t, err)
		putsAcked := map[string]string{}
		var smu sync.Mutex
		if err := fp.Register("writer", "soak", func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			// Long enough to span control-loop ticks, so the in-flight
			// signal the autoscaler samples actually sees the burst.
			ctx.Work(600 * time.Millisecond)
			k := string(payload)
			if err := ns.Put(k, payload); err != nil {
				return nil, err
			}
			smu.Lock()
			putsAcked[k] = k
			smu.Unlock()
			return payload, nil
		}, faas.Config{
			MemoryMB:        128,
			ColdStart:       150 * time.Millisecond,
			KeepAlive:       3 * time.Second,
			ColdStartBudget: 5 * time.Second,
		}); err != nil {
			t.Error(err)
			return
		}
		ctrl.Start()
		defer ctrl.Stop()
		inj.Run(sch)

		// Burst phase: 8 concurrent waves every 500ms for 8s, overlapping
		// the whole fault schedule; then idle for scale-to-zero.
		wg := simclock.NewGroup(v)
		var mu sync.Mutex
		for wave := 0; wave < 16; wave++ {
			width := 2
			if wave >= 4 && wave < 10 {
				width = 8 // the burst
			}
			for j := 0; j < width; j++ {
				key := fmt.Sprintf("w%d-%d", wave, j)
				wg.Go(func() {
					v.Sleep(time.Duration(wave)*500*time.Millisecond + 700*time.Microsecond)
					out, err := fp.InvokeFor("soak", "writer", []byte(key))
					mu.Lock()
					defer mu.Unlock()
					res.invoked++
					if err != nil {
						res.failed++
						t.Errorf("invoke %s failed under chaos: %v", key, err)
						return
					}
					if out.Cold {
						res.cold++
					}
				})
			}
		}
		// Sample the controller while the burst runs.
		wg.Go(func() {
			for i := 0; i < 8; i++ {
				v.Sleep(time.Second)
				st := ctrl.Status()
				if st.Machines > res.peakMach {
					res.peakMach = st.Machines
				}
				for _, f := range st.Functions {
					if f.Name == "writer" && f.Desired > res.peakDesired {
						res.peakDesired = f.Desired
					}
				}
			}
		})
		wg.Wait()
		inj.Wait()

		v.Sleep(15 * time.Second) // idle: scale-to-zero + drain
		res.finalPool, _ = fp.PoolTarget("soak", "writer")
		res.finalMach = ctrl.Status().Machines

		// Every acked put must still read back through the repaired replicas.
		smu.Lock()
		res.putsAcked = len(putsAcked)
		for k, want := range putsAcked {
			if got, err := ns.Get(k); err == nil && string(got) == want {
				res.putsOK++
			} else {
				t.Errorf("acked put %s = %q, %v (want %q)", k, got, err, want)
			}
		}
		smu.Unlock()
	})

	res.log = inj.Log()
	res.ticks = ctrl.Ticks()
	return res
}

// TestChaosSoakWithAutoscaler: the elastic control plane stays correct and
// deterministic under fault injection — Jiffy node crashes land while the
// autoscaler is mid-burst-reaction, and still: zero failed invokes, zero
// lost acked state, a clean scale-up/scale-to-zero cycle, and a
// byte-identical rerun digest.
func TestChaosSoakWithAutoscaler(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	const seed = 9
	r1 := runAutoscaleSoak(t, seed)
	if t.Failed() {
		t.Fatalf("first run failed; chaos log:\n%s", joinLines(r1.log))
	}
	r2 := runAutoscaleSoak(t, seed)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("autoscale soak not deterministic:\nrun1: %+v\nrun2: %+v", r1, r2)
	}
	if r1.failed != 0 {
		t.Errorf("%d invokes failed under chaos", r1.failed)
	}
	if r1.putsOK != r1.putsAcked || r1.putsAcked == 0 {
		t.Errorf("state loss: %d/%d acked puts verified", r1.putsOK, r1.putsAcked)
	}
	if r1.peakDesired < 2 {
		t.Errorf("peak desired = %d; the burst never drove a scale-up", r1.peakDesired)
	}
	if r1.finalPool != 0 || r1.finalMach != 0 {
		t.Errorf("idle left pool=%d machines=%d, want 0/0", r1.finalPool, r1.finalMach)
	}
	if r1.ticks == 0 {
		t.Error("controller never ticked")
	}
}
