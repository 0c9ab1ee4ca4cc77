package sebs

import (
	"encoding/json"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
)

// TestSuiteShortRun drives every app through the HTTP gateway with a small
// closed loop and checks the report invariants: all four apps present, no
// errors, the forced cold-start pattern (request 0 plus one keep-alive gap
// at request 5 → exactly 2 colds in 10), ordered percentiles, and a nonzero
// bill.
func TestSuiteShortRun(t *testing.T) {
	rep, err := Run(Config{Requests: 10, ColdEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Apps) != 4 {
		t.Fatalf("apps = %d, want 4", len(rep.Apps))
	}
	if rep.Transport != "http" || !rep.VirtualClock {
		t.Fatalf("report meta = %+v", rep)
	}
	for _, a := range rep.Apps {
		if a.Errors != 0 {
			t.Errorf("%s: %d errors", a.App, a.Errors)
		}
		if a.ColdStarts != 2 {
			t.Errorf("%s: cold_starts = %d, want 2 (request 0 + one forced gap)", a.App, a.ColdStarts)
		}
		if a.P50Ms <= 0 || a.P50Ms > a.P95Ms || a.P95Ms > a.P99Ms {
			t.Errorf("%s: percentiles out of order: p50=%v p95=%v p99=%v", a.App, a.P50Ms, a.P95Ms, a.P99Ms)
		}
		if a.BilledCostUSD <= 0 || a.CostPer1kUSD <= 0 {
			t.Errorf("%s: zero billed cost (%v / %v per 1k)", a.App, a.BilledCostUSD, a.CostPer1kUSD)
		}
	}
}

// TestSuiteDeterministic: two identical runs must serialize to identical
// JSON — every figure comes from the virtual clock and the meter, never
// from wall time.
func TestSuiteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full suite runs; skipped in -short mode")
	}
	cfg := Config{Requests: 8, ColdEvery: 4, Apps: []string{"webapp", "video"}}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(r1)
	j2, _ := json.Marshal(r2)
	if string(j1) != string(j2) {
		t.Fatalf("reports differ:\n%s\n%s", j1, j2)
	}
}

// TestUnknownAppsAreAnError: a filter naming any app the suite lacks fails
// before a platform is built, and the error names every such app — a subset
// run is never the silent answer to a typo.
func TestUnknownAppsAreAnError(t *testing.T) {
	for _, apps := range [][]string{
		{"nosuch"},
		{"webapp", "nosuch"},
		{"webapp", " video", "other"},
	} {
		_, err := Run(Config{Requests: 1, Apps: apps})
		if err == nil {
			t.Errorf("Run(%q): no error", apps)
			continue
		}
		for _, n := range apps {
			known := n == "webapp"
			if strings.Contains(err.Error(), strconv.Quote(n)) == known {
				t.Errorf("Run(%q): error %q, want it to name exactly the unknown apps", apps, err)
			}
		}
	}
}

// sentinel is what TestRunReleasesItsPlatform watches: pointer-free, so it
// is in no cycle, and larger than the 16 B tiny-allocator block, so its
// finalizer runs when it alone becomes unreachable.
type sentinel [64]byte

// TestRunReleasesItsPlatform: once Run has returned, nothing net/http keeps
// — a connection goroutine still unwinding, the server it served for, an
// idle connection of the transport — reaches the platform. A sentinel only
// one registered handler refers to must be unreachable at the first
// collection after Run, the one the benchmark's live heap is read after: the
// finalizer that collection queues must run within 2 s.
func TestRunReleasesItsPlatform(t *testing.T) {
	freed := make(chan struct{})
	watched := app{name: "sentinel", spec: specOf("sentinel"),
		setup: func(*core.Platform) (faas.Handler, func(int) []byte, error) {
			s := new(sentinel)
			runtime.SetFinalizer(s, func(*sentinel) { close(freed) })
			h := func(_ *faas.Ctx, payload []byte) ([]byte, error) {
				runtime.KeepAlive(s)
				return payload, nil
			}
			return h, func(int) []byte { return []byte("ping") }, nil
		}}
	rep, err := run(Config{Requests: 3}, []app{watched})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Apps) != 1 || rep.Apps[0].Errors != 0 {
		t.Fatalf("report = %+v, want one app with no errors", rep.Apps)
	}
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(2 * time.Second):
		t.Fatal("the run's platform was still reachable at the first collection after Run returned")
	}
}
