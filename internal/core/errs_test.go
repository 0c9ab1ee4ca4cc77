package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/faas"
	"repro/internal/jiffy"
	"repro/internal/scheduler"
)

// TestSentinelRoundTrip pins the error taxonomy: every subsystem failure
// wraps exactly one platform-wide sentinel, survives further wrapping, and
// does not bleed into the other sentinels.
func TestSentinelRoundTrip(t *testing.T) {
	sentinels := []error{errs.ErrThrottled, errs.ErrLeaseExpired, errs.ErrNoCapacity}
	cases := []struct {
		name string
		err  error
		want error
	}{
		{"faas concurrency cap", faas.ErrThrottled, errs.ErrThrottled},
		{"faas tenant admission", faas.ErrTenantThrottled, errs.ErrThrottled},
		{"jiffy lease expiry", jiffy.ErrLeaseExpired, errs.ErrLeaseExpired},
		{"jiffy pool exhausted", jiffy.ErrNoCapacity, errs.ErrNoCapacity},
		{"scheduler unplaceable", scheduler.ErrUnplaceable, errs.ErrNoCapacity},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The raw subsystem error matches its platform sentinel…
			if !errors.Is(c.err, c.want) {
				t.Fatalf("%v does not match %v", c.err, c.want)
			}
			// …still matches after a caller wraps it again…
			wrapped := fmt.Errorf("handling request 42: %w", c.err)
			if !errors.Is(wrapped, c.want) {
				t.Fatalf("wrapped %v lost its sentinel %v", wrapped, c.want)
			}
			// …and matches no other sentinel.
			for _, other := range sentinels {
				if other != c.want && errors.Is(c.err, other) {
					t.Fatalf("%v also matches unrelated sentinel %v", c.err, other)
				}
			}
		})
	}
}

// TestSentinelLivePaths produces two sentinels through real call paths —
// not just value identity — and switches on them the way callers should.
func TestSentinelLivePaths(t *testing.T) {
	p, v := NewVirtual(Options{})
	defer v.Close()
	acme := p.Tenant("acme")
	must(t, acme.Register("f", func(ctx *faas.Ctx, in []byte) ([]byte, error) { return in, nil },
		faas.Config{MaxRetries: -1}))
	// One-token bucket with an unqueueable wait: the second back-to-back
	// request is shed.
	p.FaaS.SetAdmission(faas.AdmissionConfig{RatePerSecond: 1, Burst: 1, MaxWait: time.Nanosecond})
	v.Run(func() {
		if _, err := acme.Invoke("f", nil); err != nil {
			t.Fatalf("first invoke: %v", err)
		}
		_, err := acme.Invoke("f", nil)
		switch {
		case errors.Is(err, errs.ErrThrottled): // expected
		case err == nil:
			t.Fatal("second invoke admitted, want shed")
		default:
			t.Fatalf("err = %v, want errs.ErrThrottled", err)
		}
	})

	// A lapsed jiffy lease surfaces errs.ErrLeaseExpired (and stays compatible
	// with the legacy no-namespace match).
	v.Run(func() {
		ns, err := p.Jiffy.CreateNamespace("/tmp", jiffy.NamespaceOptions{Lease: 100 * time.Millisecond})
		must(t, err)
		v.Sleep(time.Second)
		err = ns.Put("k", []byte("v"))
		if !errors.Is(err, errs.ErrLeaseExpired) {
			t.Fatalf("err = %v, want errs.ErrLeaseExpired", err)
		}
		if !errors.Is(err, jiffy.ErrNoNamespace) {
			t.Fatalf("err = %v lost the legacy ErrNoNamespace match", err)
		}
	})
}

// TestUnplaceableInvokeIsNoCapacity: an invoke whose demand fits no machine
// even when empty carries the scheduler's capacity identity and is not a
// throttle, so a caller can tell "too big for any host" from a busy one and
// does not retry it.
func TestUnplaceableInvokeIsNoCapacity(t *testing.T) {
	p, v := NewVirtual(Options{})
	defer v.Close()
	p.FaaS.AttachCluster(scheduler.NewCluster(scheduler.Resources{CPU: 1000, MemMB: 1024}, scheduler.FirstFit{}), 0)
	acme := p.Tenant("acme")
	must(t, acme.Register("huge", func(ctx *faas.Ctx, in []byte) ([]byte, error) { return in, nil },
		faas.Config{Demand: scheduler.Resources{CPU: 2000, MemMB: 512}, MaxRetries: -1}))
	v.Run(func() {
		_, err := acme.Invoke("huge", nil)
		if !errors.Is(err, errs.ErrNoCapacity) || errors.Is(err, errs.ErrThrottled) {
			t.Fatalf("err = %v, want errs.ErrNoCapacity and not errs.ErrThrottled", err)
		}
	})
}
