package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/faas"
	"repro/internal/pulsar"
)

// TestCloseStopsItsLoops: Close stops the control loops EnableAutoscale and
// EnableBrokerLoadManager started. On the real clock the goroutine count
// returns to its baseline; on the virtual clock Run returns with no Stop
// call. After Close an invoke releases its instance instead of parking it.
func TestCloseStopsItsLoops(t *testing.T) {
	enable := func(p *Platform) {
		p.EnableAutoscale(autoscale.Config{TickInterval: 5 * time.Millisecond})
		p.EnableBrokerLoadManager(pulsar.LoadManagerConfig{Interval: 5 * time.Millisecond})
		must(t, p.Tenant("t").Register("f", func(_ *faas.Ctx, in []byte) ([]byte, error) { return in, nil },
			faas.Config{ColdStart: time.Microsecond, WarmStart: -1, KeepAlive: time.Hour}))
	}
	invoke := func(p *Platform) int {
		_, err := p.Tenant("t").Invoke("f", nil)
		must(t, err)
		st, err := p.Tenant("t").Stats("f")
		must(t, err)
		return st.WarmIdle
	}

	t.Run("real", func(t *testing.T) {
		base := runtime.NumGoroutine()
		p := New(Options{})
		enable(p)
		if idle := invoke(p); idle != 1 {
			t.Fatalf("warm idle = %d before Close, want 1", idle)
		}
		p.Close()
		p.Close() // idempotent
		if idle := invoke(p); idle != 0 {
			t.Fatalf("warm idle = %d after Close, want 0: the instance was parked", idle)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines 5s after Close, %d before New", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	})

	t.Run("virtual", func(t *testing.T) {
		p, v := NewVirtual(Options{})
		defer v.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			v.Run(func() {
				enable(p)
				v.Sleep(time.Second)
				invoke(p)
				p.Close()
				if idle := invoke(p); idle != 0 {
					t.Errorf("warm idle = %d after Close, want 0: the instance was parked", idle)
				}
			})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Run did not return after Close: a control loop is still ticking")
		}
	})
}
