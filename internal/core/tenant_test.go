package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/faas"
	"repro/internal/simclock"
)

func TestTenantHandle(t *testing.T) {
	p, v := NewVirtual(Options{})
	defer v.Close()
	acme := p.Tenant("acme")
	rival := p.Tenant("rival")
	if acme.Name() != "acme" || acme.p != p {
		t.Fatal("handle identity")
	}

	must(t, acme.Register("resize", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		ctx.Work(50 * time.Millisecond)
		return in, nil
	}, faas.Config{MemoryMB: 512}))

	v.Run(func() {
		res, err := acme.Invoke("resize", []byte("img"))
		must(t, err)
		if string(res.Output) != "img" {
			t.Fatalf("output = %q", res.Output)
		}

		// Another tenant cannot invoke — or distinguish from nonexistent.
		if _, err := rival.Invoke("resize", nil); !errors.Is(err, faas.ErrNoFunction) {
			t.Fatalf("cross-tenant invoke err = %v, want ErrNoFunction", err)
		}
		if _, err := acme.Invoke("ghost", nil); !errors.Is(err, faas.ErrNoFunction) {
			t.Fatalf("missing-function err = %v, want ErrNoFunction", err)
		}

		// The platform's async path honors the same scoping.
		var rivalErr, ownErr error
		async := simclock.NewGroup(v)
		async.Add(2)
		p.FaaS.InvokeAsyncFor("rival", "resize", nil, func(_ faas.Result, err error) { rivalErr = err; async.Done() })
		p.FaaS.InvokeAsyncFor("acme", "resize", []byte("x"), func(_ faas.Result, err error) { ownErr = err; async.Done() })
		async.Wait()
		if !errors.Is(rivalErr, faas.ErrNoFunction) {
			t.Errorf("cross-tenant async err = %v, want ErrNoFunction", rivalErr)
		}
		if ownErr != nil {
			t.Errorf("own async invoke: %v", ownErr)
		}
	})

	// The invocation shows up on the handle's invoice.
	inv := acme.Invoice()
	if inv.Tenant != "acme" || inv.Total <= 0 {
		t.Fatalf("invoice = %+v", inv)
	}
	if rival.Invoice().Total != 0 {
		t.Fatal("rival billed for acme's work")
	}

	// Shed round-trips through admission.
	p.FaaS.SetAdmission(faas.AdmissionConfig{RatePerSecond: 1, Burst: 1, MaxWait: time.Nanosecond})
	v.Run(func() {
		_, _ = acme.Invoke("resize", nil)
		_, _ = acme.Invoke("resize", nil)
	})
	if acme.Shed() != 1 {
		t.Fatalf("shed = %d, want 1", acme.Shed())
	}
	if got := p.Meter.Units("acme", billing.ResShedRequests); got != 1 {
		t.Fatalf("billed shed units = %v, want 1", got)
	}
}

// TestTenantNamespacedFunctionNames: function names are a namespace per
// tenant. Two tenants each own a "resize" without colliding — registration
// neither fails nor reveals that the other tenant's name exists — and each
// handle's Invoke resolves to its own tenant's deployment, whose handler sees
// the name it was registered under.
func TestTenantNamespacedFunctionNames(t *testing.T) {
	p, v := NewVirtual(Options{})
	defer v.Close()
	acme := p.Tenant("acme")
	evil := p.Tenant("evil")
	mk := func(out string) faas.Handler {
		return func(ctx *faas.Ctx, in []byte) ([]byte, error) {
			return []byte(out + ":" + ctx.FunctionName), nil
		}
	}
	must(t, acme.Register("resize", mk("acme"), faas.Config{}))
	must(t, evil.Register("resize", mk("evil"), faas.Config{}))
	if err := evil.Register("resize", mk("again"), faas.Config{}); !errors.Is(err, faas.ErrExists) {
		t.Fatalf("same-tenant re-register = %v, want ErrExists", err)
	}
	v.Run(func() {
		for _, h := range []*TenantHandle{acme, evil} {
			res, err := h.Invoke("resize", nil)
			if want := h.Name() + ":resize"; err != nil || string(res.Output) != want {
				t.Fatalf("%s.Invoke(resize) = %q, %v; want %q", h.Name(), res.Output, err, want)
			}
		}
		// Cross-tenant names stay unprobeable.
		if _, err := acme.Invoke("missing", nil); !errors.Is(err, faas.ErrNoFunction) {
			t.Fatalf("missing = %v", err)
		}
	})
}

// TestFunctionIdentityIsTenantAndName: a function is identified by the pair
// {tenant, name}, never by a "tenant/name" string. A name containing "/"
// therefore cannot alias into another tenant's namespace: it is neither
// reachable from, nor deletable by, the tenant it spells, and two pairs whose
// joined forms coincide are still two functions.
func TestFunctionIdentityIsTenantAndName(t *testing.T) {
	p, v := NewVirtual(Options{})
	defer v.Close()
	victim := p.Tenant("victim")
	evil := p.Tenant("evil")
	must(t, evil.Register("victim/resize", func(_ *faas.Ctx, in []byte) ([]byte, error) {
		t.Errorf("evil's handler ran with payload %q", in)
		return nil, nil
	}, faas.Config{}))
	v.Run(func() {
		if _, err := victim.Invoke("resize", []byte("secret")); !errors.Is(err, faas.ErrNoFunction) {
			t.Fatalf("victim.Invoke(resize) = %v, want ErrNoFunction", err)
		}
	})
	if err := victim.Unregister("resize"); !errors.Is(err, faas.ErrNoFunction) {
		t.Fatalf("victim.Unregister(resize) = %v, want ErrNoFunction", err)
	}
	if fns := evil.Functions(); len(fns) != 1 || fns[0].Name != "victim/resize" {
		t.Fatalf("evil.Functions() = %+v, want its one function intact", fns)
	}

	nop := func(*faas.Ctx, []byte) ([]byte, error) { return nil, nil }
	must(t, p.FaaS.Register("c", "a/b", nop, faas.Config{}))
	must(t, p.FaaS.Register("b/c", "a", nop, faas.Config{}))
}
