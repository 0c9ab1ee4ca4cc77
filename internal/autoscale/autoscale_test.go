package autoscale

import (
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/simclock"
)

var machineCap = scheduler.Resources{CPU: 4000, MemMB: 16384}

func worker(d time.Duration) faas.Handler {
	return func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		ctx.Work(d)
		return payload, nil
	}
}

// TestBurstPanicAndScaleToZero walks the full reactive arc: a 12-wide burst
// flips the controller into panic mode and holds capacity up; after the
// burst drains and panic expires, the function scales to zero and the
// drained machines leave the fleet.
func TestBurstPanicAndScaleToZero(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := faas.New(v, nil)
	cluster := scheduler.NewCluster(machineCap, scheduler.FirstFit{})
	p.AttachCluster(cluster, 0)
	must(t, p.Register("burst", "t", worker(2*time.Second), faas.Config{
		Demand:    scheduler.Resources{CPU: 1000, MemMB: 512},
		KeepAlive: 2 * time.Second, ColdStart: 10 * time.Millisecond, WarmStart: time.Millisecond,
	}))
	ctrl := New(v, p, cluster, Config{
		TickInterval: time.Second, StableWindow: 10 * time.Second,
		PanicWindow: 2 * time.Second, ScaleToZeroAfter: 3 * time.Second,
		DrainDelay: 2 * time.Second,
	})
	reg := obs.New(v)
	ctrl.SetObs(reg)

	v.Run(func() {
		ctrl.Start()
		rep := faas.Drive(p, "t", "burst", nil, make([]time.Duration, 12))
		v.Sleep(1500 * time.Millisecond)

		st := ctrl.Status()
		if len(st.Functions) != 1 {
			t.Fatalf("functions = %d, want 1", len(st.Functions))
		}
		fs := st.Functions[0]
		if !fs.PanicMode {
			t.Error("controller not in panic mode mid-burst")
		}
		if fs.Desired < 2 {
			t.Errorf("desired = %d mid-burst, want ≥ 2", fs.Desired)
		}
		rep.Wait()
		if st, _ := p.StatsFor("t", "burst"); st.Throttles+st.Failures+st.Timeouts != 0 {
			t.Fatalf("burst stats = %+v, want no throttle, failure or timeout", st)
		}

		v.Sleep(25 * time.Second) // panic expiry + idle window + drain delay
		st = ctrl.Status()
		fs = st.Functions[0]
		if fs.PanicMode {
			t.Error("still panicking long after the burst")
		}
		if fs.Desired != 0 {
			t.Errorf("desired = %d after idle, want 0 (scale-to-zero)", fs.Desired)
		}
		if tgt, _ := p.PoolTarget("t", "burst"); tgt != 0 {
			t.Errorf("pool target = %d after idle, want 0", tgt)
		}
		if got := cluster.ActiveMachines(); got != 0 {
			t.Errorf("active machines after scale-to-zero = %d, want 0", got)
		}
		if got := cluster.MachineCount(); got != 0 {
			t.Errorf("placeable machines after drain = %d, want 0", got)
		}
		ctrl.Stop()
	})
	ticks := ctrl.Status().Ticks
	if ticks < 20 {
		t.Errorf("ticks = %d, want ≥ 20 over ~26s of virtual time", ticks)
	}
	if got := reg.CounterValue("autoscale.ticks"); got != ticks {
		t.Errorf("obs ticks = %d, want %d", got, ticks)
	}
	if got := reg.CounterValue("autoscale.machines.drained"); got == 0 {
		t.Error("no machines recorded as drained")
	}
}

// TestKeepAliveIsTheScaleToZeroFloor: a function whose KeepAlive exceeds
// ScaleToZeroAfter keeps its last instance until the KeepAlive lapses.
func TestKeepAliveIsTheScaleToZeroFloor(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := faas.New(v, nil)
	must(t, p.Register("sticky", "t", worker(10*time.Millisecond), faas.Config{
		KeepAlive: 20 * time.Second, ColdStart: 10 * time.Millisecond,
	}))
	ctrl := New(v, p, nil, Config{
		TickInterval: time.Second, StableWindow: 4 * time.Second,
		PanicWindow: time.Second, ScaleToZeroAfter: 2 * time.Second,
	})
	v.Run(func() {
		if _, err := p.InvokeFor("t", "sticky", nil); err != nil {
			t.Fatal(err)
		}
		// 10s idle: well past ScaleToZeroAfter, inside KeepAlive.
		for i := 0; i < 10; i++ {
			v.Sleep(time.Second)
			ctrl.Tick()
		}
		if fs := ctrl.Status().Functions[0]; fs.Desired != 1 {
			t.Errorf("desired = %d inside keep-alive, want 1", fs.Desired)
		}
		st, _ := p.StatsFor("t", "sticky")
		if st.WarmIdle != 1 {
			t.Errorf("warm idle = %d inside keep-alive, want 1", st.WarmIdle)
		}
		// Past the keep-alive floor the function goes to zero.
		for i := 0; i < 12; i++ {
			v.Sleep(time.Second)
			ctrl.Tick()
		}
		if fs := ctrl.Status().Functions[0]; fs.Desired != 0 {
			t.Errorf("desired = %d past keep-alive, want 0", fs.Desired)
		}
	})
}

// TestStartStopIdempotent: Start twice runs one loop; Stop ends it.
func TestStartStopIdempotent(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := faas.New(v, nil)
	ctrl := New(v, p, nil, Config{TickInterval: time.Second})
	v.Run(func() {
		ctrl.Start()
		ctrl.Start()
		v.Sleep(5500 * time.Millisecond)
		ctrl.Stop()
	})
	if got := ctrl.Status().Ticks; got != 5 {
		t.Errorf("ticks = %d, want exactly 5 (double Start must not double-tick)", got)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
