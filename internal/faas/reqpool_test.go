package faas

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
)

// TestRequestPoolResetOnPut pins the reset-on-put contract directly: the
// moment putRequest returns, every field of the recycled request — exported
// invocation identity and unexported budget bookkeeping alike — must be
// zero, before any later Get can observe it.
func TestRequestPoolResetOnPut(t *testing.T) {
	r := getRequest()
	r.ctx = Ctx{
		Clock:        simclock.Real{},
		FunctionName: "leaky",
		Tenant:       "tenant-a",
		RequestID:    42,
		InstanceID:   7,
		Attempt:      3,
		budget:       time.Second,
		worked:       time.Millisecond,
		exceeded:     true,
		slowdown:     2.5,
	}
	putRequest(r)
	if r.ctx != (Ctx{}) {
		t.Fatalf("putRequest left state behind: %+v", r.ctx)
	}
}

// TestRequestPoolNoCrossTenantLeak interleaves two tenants' invocations so
// their requests churn through the shared pool (run under -race in CI's
// alloc-gate job). Each handler asserts the Ctx it was handed carries
// exactly its own identity — a skipped reset or a data race on a recycled
// request shows up as another tenant's field, a stale attempt count, or a
// race report.
func TestRequestPoolNoCrossTenantLeak(t *testing.T) {
	p := New(simclock.Real{}, nil)
	const perTenant = 2000

	for _, tenant := range []string{"tenant-a", "tenant-b"} {
		name := "echo-" + tenant
		err := p.Register(name, tenant, func(ctx *Ctx, in []byte) ([]byte, error) {
			if ctx.Tenant != tenant || ctx.FunctionName != name {
				return nil, fmt.Errorf("ctx leaked across pool: tenant=%q fn=%q, want %q/%q",
					ctx.Tenant, ctx.FunctionName, tenant, name)
			}
			if ctx.Attempt != 1 || ctx.exceeded || ctx.worked != 0 {
				return nil, fmt.Errorf("recycled request not reset: attempt=%d exceeded=%v worked=%v",
					ctx.Attempt, ctx.exceeded, ctx.worked)
			}
			return in, nil
		}, Config{WarmStart: 1, ColdStart: 1, KeepAlive: time.Hour, MaxConcurrency: 4})
		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, tenant := range []string{"tenant-a", "tenant-b"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			payload := []byte("payload-" + tenant)
			for i := 0; i < perTenant; i++ {
				res, err := p.InvokeFor(tenant, "echo-"+tenant, payload)
				if err != nil {
					errs <- fmt.Errorf("%s invoke %d: %w", tenant, i, err)
					return
				}
				if !bytes.Equal(res.Output, payload) {
					errs <- fmt.Errorf("%s invoke %d: echoed %q", tenant, i, res.Output)
					return
				}
			}
		}(tenant)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
