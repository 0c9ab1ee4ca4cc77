package billing

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestBilledDurationRoundsUp(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want time.Duration
	}{
		{0, 100 * time.Millisecond},
		{-time.Second, 100 * time.Millisecond},
		{1 * time.Millisecond, 100 * time.Millisecond},
		{100 * time.Millisecond, 100 * time.Millisecond},
		{101 * time.Millisecond, 200 * time.Millisecond},
		{250 * time.Millisecond, 300 * time.Millisecond},
		{time.Second, time.Second},
	}
	for _, c := range cases {
		if got := BilledDuration(c.in); got != c.want {
			t.Errorf("BilledDuration(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestBilledDurationProperties(t *testing.T) {
	// Property: billed ≥ actual, billed is a positive multiple of the
	// granularity, and overshoot is < one granule.
	f := func(ms uint16) bool {
		d := time.Duration(ms) * time.Millisecond
		b := BilledDuration(d)
		if b < d || b <= 0 {
			return false
		}
		if b%BillingGranularity != 0 {
			return false
		}
		return b-d < BillingGranularity || d == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddInvocationGBSeconds(t *testing.T) {
	m := NewMeter()
	// 1 second at 1024 MB = exactly 1 GB-second.
	m.AddInvocation("acme", time.Second, 1024, time.Time{})
	if got := m.Units("acme", ResInvocationGBs); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("GB-seconds = %v, want 1", got)
	}
	if got := m.Units("acme", ResInvocationReqs); got != 1 {
		t.Fatalf("requests = %v, want 1", got)
	}
	// 50 ms at 512 MB bills as 100 ms × 0.5 GB = 0.05 GB-s.
	m.AddInvocation("acme", 50*time.Millisecond, 512, time.Time{})
	if got := m.Units("acme", ResInvocationGBs); math.Abs(got-1.05) > 1e-9 {
		t.Fatalf("GB-seconds = %v, want 1.05", got)
	}
}

func TestInvoiceTotalsAndOrdering(t *testing.T) {
	m := NewMeter()
	m.Add(Record{Tenant: "t", Resource: ResBlobPut, Units: 1000})
	m.Add(Record{Tenant: "t", Resource: ResBlobGet, Units: 5000})
	p := Pricing{ResBlobGet: 0.001, ResBlobPut: 0.01}
	inv := m.Invoice("t", p)
	if len(inv.Lines) != 2 {
		t.Fatalf("lines = %d", len(inv.Lines))
	}
	if inv.Lines[0].Resource != ResBlobGet {
		t.Fatalf("lines not sorted: %v", inv.Lines[0].Resource)
	}
	want := 5000*0.001 + 1000*0.01
	if math.Abs(inv.Total-want) > 1e-9 {
		t.Fatalf("total = %v, want %v", inv.Total, want)
	}
	if s := inv.String(); s == "" {
		t.Fatal("empty invoice rendering")
	}
}

func TestZeroUnitRecordsDropped(t *testing.T) {
	m := NewMeter()
	m.Add(Record{Tenant: "t", Resource: "x", Units: 0})
	if got := m.Tenants(); len(got) != 0 {
		t.Fatalf("zero-unit record created tenants %v", got)
	}
	if inv := m.Invoice("t", DefaultPricing()); len(inv.Lines) != 0 || m.Units("t", "x") != 0 {
		t.Fatalf("zero-unit record itemized: %+v", inv)
	}
	// An invocation at zero memory bills the request and no GB-seconds line.
	m.AddInvocation("t", time.Second, 0, time.Time{})
	if inv := m.Invoice("t", DefaultPricing()); len(inv.Lines) != 1 || inv.Lines[0].Resource != ResInvocationReqs {
		t.Fatalf("zero-memory invocation lines = %+v, want requests only", inv.Lines)
	}
}

// TestTotalsExactOverManyAdds: totals are the Meter's only state, exact far
// past any window a record log would have had (the old ring held 1<<14).
func TestTotalsExactOverManyAdds(t *testing.T) {
	m := NewMeter()
	const n = 1<<14 + 1000
	for i := 0; i < n; i++ {
		m.Add(Record{Tenant: "t", Resource: ResMsgPublish, Units: 2})
		m.AddInvocation("t", 150*time.Millisecond, 512, time.Time{})
	}
	if got := m.Units("t", ResMsgPublish); got != 2*n {
		t.Fatalf("publish units = %v, want %v", got, 2*n)
	}
	if got := m.Units("t", ResInvocationReqs); got != n {
		t.Fatalf("requests = %v, want %v", got, n)
	}
	// 200 ms billed × 0.5 GB = 0.1 GB-s each.
	if got, want := m.Units("t", ResInvocationGBs), 0.1*n; math.Abs(got-want) > 1e-6 {
		t.Fatalf("GB-seconds = %v, want %v", got, want)
	}
	inv := m.Invoice("t", DefaultPricing())
	if len(inv.Lines) != 3 {
		t.Fatalf("invoice lines = %+v, want 3", inv.Lines)
	}
}

func TestTenantsSorted(t *testing.T) {
	m := NewMeter()
	m.Add(Record{Tenant: "zeta", Resource: "r", Units: 1})
	m.Add(Record{Tenant: "acme", Resource: "r", Units: 1})
	got := m.Tenants()
	if len(got) != 2 || got[0] != "acme" || got[1] != "zeta" {
		t.Fatalf("Tenants = %v", got)
	}
}

func TestReset(t *testing.T) {
	m := NewMeter()
	m.Add(Record{Tenant: "t", Resource: "r", Units: 5})
	m.Reset()
	if m.Units("t", "r") != 0 || len(m.Tenants()) != 0 || len(m.Invoice("t", DefaultPricing()).Lines) != 0 {
		t.Fatal("Reset did not clear")
	}
	m.Add(Record{Tenant: "t", Resource: "r", Units: 2})
	if got := m.Units("t", "r"); got != 2 {
		t.Fatalf("Units after Reset and reuse = %v, want 2", got)
	}
}

func TestReservedCost(t *testing.T) {
	p := Pricing{ResVMHours: 0.10}
	if got := ReservedCost(3, 10*time.Hour, p); math.Abs(got-3.0) > 1e-9 {
		t.Fatalf("ReservedCost = %v, want 3.0", got)
	}
	// Partial hours bill as full hours.
	if got := ReservedCost(1, 90*time.Minute, p); math.Abs(got-0.20) > 1e-9 {
		t.Fatalf("ReservedCost(90m) = %v, want 0.20", got)
	}
	if got := ReservedCost(1, time.Minute, p); math.Abs(got-0.10) > 1e-9 {
		t.Fatalf("ReservedCost(1m) = %v, want 0.10", got)
	}
}

func TestVMsForPeak(t *testing.T) {
	if got := VMsForPeak(1000, 100); got != 10 {
		t.Fatalf("VMsForPeak = %d, want 10", got)
	}
	if got := VMsForPeak(101, 100); got != 2 {
		t.Fatalf("VMsForPeak = %d, want 2 (ceil)", got)
	}
	if got := VMsForPeak(0, 100); got != 0 {
		t.Fatalf("VMsForPeak(0) = %d", got)
	}
}

func TestDefaultPricingCoversCanonicalResources(t *testing.T) {
	p := DefaultPricing()
	for _, r := range []string{
		ResInvocationGBs, ResInvocationReqs, ResBlobStorageGBh, ResBlobGet,
		ResBlobPut, ResBlobBytesOut, ResDBReadUnits,
		ResDBWriteUnits, ResVMHours, ResMsgPublish, ResJiffyBlockSecs,
	} {
		if p[r] <= 0 {
			t.Errorf("no price for %s", r)
		}
	}
}

func TestMeterConcurrentAdds(t *testing.T) {
	m := NewMeter()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 1000; j++ {
				m.Add(Record{Tenant: "t", Resource: "r", Units: 1})
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := m.Units("t", "r"); got != 8000 {
		t.Fatalf("Units = %v, want 8000", got)
	}
}

// TestMeterConcurrentRecordInvoice hammers the Meter with concurrent writers
// (Add, AddInvocation) and readers (Invoice, Units, Tenants) — the
// pattern a live platform produces when the billing surface is scraped while
// traffic flows. Run under -race this proves the Meter's locking covers every
// public method, not just Add.
func TestMeterConcurrentRecordInvoice(t *testing.T) {
	m := NewMeter()
	p := DefaultPricing()
	tenants := []string{"acme", "globex", "initech"}
	const writers, perWriter = 6, 500
	wantPub := float64(writers * perWriter / len(tenants))

	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := tenants[i%len(tenants)]
			for j := 0; j < perWriter; j++ {
				m.Add(Record{Tenant: tenant, Resource: ResMsgPublish, Units: 1})
				m.AddInvocation(tenant, 42*time.Millisecond, 128, time.Time{})
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				for _, tenant := range m.Tenants() {
					inv := m.Invoice(tenant, p)
					if inv.Total < 0 {
						t.Errorf("negative invoice total for %s", tenant)
						return
					}
				}
				if got := m.Units(tenants[j%len(tenants)], ResInvocationReqs); got < 0 || got > wantPub {
					t.Errorf("Units mid-run = %v, out of range", got)
					return
				}
			}
		}()
	}
	wg.Wait()

	for _, tenant := range tenants {
		if got := m.Units(tenant, ResMsgPublish); got != wantPub {
			t.Errorf("Units(%s, publish) = %v, want %v", tenant, got, wantPub)
		}
		if got := m.Units(tenant, ResInvocationReqs); got != wantPub {
			t.Errorf("Units(%s, requests) = %v, want %v", tenant, got, wantPub)
		}
		if inv := m.Invoice(tenant, p); len(inv.Lines) != 3 {
			t.Errorf("Invoice(%s) lines = %+v, want 3 resources", tenant, inv.Lines)
		}
	}
	if got := m.Tenants(); len(got) != len(tenants) {
		t.Errorf("Tenants = %v, want %v", got, tenants)
	}
}
