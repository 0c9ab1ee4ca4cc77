package stateful

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/jiffy"
	"repro/internal/simclock"
)

func env(t *testing.T, latency jiffy.LatencyModel) (*simclock.Virtual, *Platform) {
	t.Helper()
	v := simclock.NewVirtual()
	t.Cleanup(v.Close)
	fp := faas.New(v, nil)
	ctrl := jiffy.NewController(v, nil, jiffy.Config{Latency: latency, DefaultLease: -1})
	ctrl.AddNode("n0", 32)
	ns, err := ctrl.CreateNamespace("/state", jiffy.NamespaceOptions{InitialBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	return v, New(fp, ns)
}

func TestStatePersistsAcrossInvocations(t *testing.T) {
	v, p := env(t, jiffy.NoLatency)
	counter := func(ctx *Ctx, _ []byte) ([]byte, error) {
		n := 0
		if raw, err := ctx.Get("count"); err == nil {
			fmt.Sscanf(string(raw), "%d", &n)
		} else if !IsNoKey(err) {
			return nil, err
		}
		n++
		return []byte(fmt.Sprint(n)), ctx.Put("count", []byte(fmt.Sprint(n)))
	}
	if err := p.Register("counter", "t", counter, Config{}); err != nil {
		t.Fatal(err)
	}
	v.Run(func() {
		for want := 1; want <= 5; want++ {
			res, err := p.Invoke("t", "counter", nil)
			if err != nil {
				t.Fatal(err)
			}
			if string(res.Output) != fmt.Sprint(want) {
				t.Fatalf("invocation %d returned %q", want, res.Output)
			}
		}
	})
}

func TestCacheServesRepeatReadsFast(t *testing.T) {
	// With a 1ms-per-op shared store and caching on, the second read of a
	// key inside the TTL must skip the store entirely.
	v, p := env(t, jiffy.LatencyModel{PerOp: time.Millisecond})
	reader := func(ctx *Ctx, _ []byte) ([]byte, error) {
		if _, err := ctx.Get("cfg"); err != nil {
			return nil, err
		}
		if _, err := ctx.Get("cfg"); err != nil {
			return nil, err
		}
		return nil, nil
	}
	if err := p.Register("reader", "t", reader, Config{
		CacheTTL: time.Minute,
		Function: faas.Config{ColdStart: 1, WarmStart: 1, KeepAlive: time.Hour},
	}); err != nil {
		t.Fatal(err)
	}
	v.Run(func() {
		if err := p.ns.Put("cfg", []byte("v1")); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Invoke("t", "reader", nil); err != nil {
			t.Fatal(err)
		}
	})
	hits, misses := p.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestBoundedStaleness(t *testing.T) {
	// A cached value may be stale at most CacheTTL: after the TTL the
	// instance re-reads the shared store and sees the new value.
	v, p := env(t, jiffy.NoLatency)
	var got []string
	reader := func(ctx *Ctx, _ []byte) ([]byte, error) {
		val, err := ctx.Get("k")
		if err != nil {
			return nil, err
		}
		got = append(got, string(val))
		return nil, nil
	}
	if err := p.Register("reader", "t", reader, Config{
		CacheTTL: 10 * time.Second,
		Function: faas.Config{ColdStart: 1, WarmStart: 1, KeepAlive: time.Hour},
	}); err != nil {
		t.Fatal(err)
	}
	v.Run(func() {
		if err := p.ns.Put("k", []byte("old")); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Invoke("t", "reader", nil); err != nil {
			t.Fatal(err)
		}
		// An external writer updates the shared store directly.
		if err := p.ns.Put("k", []byte("new")); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Invoke("t", "reader", nil); err != nil {
			t.Fatal(err)
		}
		v.Sleep(11 * time.Second) // past the TTL
		if _, err := p.Invoke("t", "reader", nil); err != nil {
			t.Fatal(err)
		}
	})
	if len(got) != 3 || got[0] != "old" || got[1] != "old" || got[2] != "new" {
		t.Fatalf("reads = %v, want [old old(cached) new]", got)
	}
}

// TestCachesArePerTenant: two tenants' same-named functions each have an
// instance #1; a value cached by one must not be served to the other.
func TestCachesArePerTenant(t *testing.T) {
	v, p := env(t, jiffy.NoLatency)
	reader := func(ctx *Ctx, _ []byte) ([]byte, error) { return ctx.Get("k") }
	cfg := Config{CacheTTL: time.Hour, Function: faas.Config{KeepAlive: time.Hour}}
	for _, tenant := range []string{"a", "b"} {
		if err := p.Register("reader", tenant, reader, cfg); err != nil {
			t.Fatal(err)
		}
	}
	v.Run(func() {
		if err := p.ns.Put("k", []byte("old")); err != nil {
			t.Fatal(err)
		}
		if res, err := p.Invoke("a", "reader", nil); err != nil || string(res.Output) != "old" {
			t.Fatalf("a read %q, %v", res.Output, err)
		}
		if err := p.ns.Put("k", []byte("new")); err != nil {
			t.Fatal(err)
		}
		// b's instance has fetched nothing yet: it must go to the store.
		if res, err := p.Invoke("b", "reader", nil); err != nil || string(res.Output) != "new" {
			t.Fatalf("b read %q, %v; want the store's value, not a's cached one", res.Output, err)
		}
	})
	if hits, misses := p.CacheStats(); hits != 0 || misses != 2 {
		t.Fatalf("cache stats hits=%d misses=%d, want 0/2", hits, misses)
	}
}

func TestWriteThroughVisibleImmediatelyToWriter(t *testing.T) {
	v, p := env(t, jiffy.NoLatency)
	rw := func(ctx *Ctx, payload []byte) ([]byte, error) {
		if err := ctx.Put("x", payload); err != nil {
			return nil, err
		}
		return ctx.Get("x")
	}
	if err := p.Register("rw", "t", rw, Config{CacheTTL: time.Minute}); err != nil {
		t.Fatal(err)
	}
	v.Run(func() {
		res, err := p.Invoke("t", "rw", []byte("fresh"))
		if err != nil || string(res.Output) != "fresh" {
			t.Fatalf("res = %q err = %v", res.Output, err)
		}
	})
}
