// Package billing implements the metering and cost model at the heart of the
// paper's serverless value proposition (§2 "Cost efficiency", §6): users of a
// serverless platform are billed at fine time granularity for the resources
// they actually consume, whereas the server-centric baseline reserves
// capacity — and pays for it — regardless of use.
//
// The Meter accumulates usage into exact per-tenant totals; Pricing converts
// them to dollars. It keeps no itemized log: nothing on the platform reads
// one, so a Meter costs what its totals maps hold and nothing per record.
// Default prices mirror the public price sheets the paper's ecosystem ran on
// circa 2020 (AWS Lambda, S3, EC2 on-demand), so that experiment E1's
// serverless-vs-reserved comparison reproduces the published cost structure.
package billing

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Canonical resource names used across the platform.
const (
	ResInvocationGBs  = "faas:gb-seconds"     // billed function duration × memory
	ResInvocationReqs = "faas:requests"       // per-invocation request fee
	ResBlobStorageGBh = "blob:gb-hours"       // blob storage over time
	ResBlobGet        = "blob:get-requests"   //
	ResBlobPut        = "blob:put-requests"   //
	ResBlobBytesOut   = "blob:bytes-out"      // egress
	ResDBReadUnits    = "db:read-units"       //
	ResDBWriteUnits   = "db:write-units"      //
	ResVMHours        = "vm:reserved-hours"   // server-centric baseline
	ResMsgPublish     = "pulsar:publish"      //
	ResJiffyBlockSecs = "jiffy:block-seconds" // ephemeral memory blocks × time
	ResShedRequests   = "faas:shed-requests"  // requests shed by tenant admission
)

// Pricing maps a resource name to its USD price per unit.
type Pricing map[string]float64

// DefaultPricing reflects public 2020-era cloud list prices; experiment E1's
// cost-shape conclusions depend only on their relative structure.
func DefaultPricing() Pricing {
	return Pricing{
		ResInvocationGBs:  0.0000166667, // per GB-second (AWS Lambda)
		ResInvocationReqs: 0.20 / 1e6,   // per request
		ResBlobStorageGBh: 0.023 / 730,  // $0.023/GB-month
		ResBlobGet:        0.0000004,    // per GET
		ResBlobPut:        0.000005,     // per PUT
		ResBlobBytesOut:   0.09 / 1e9,   // $0.09/GB egress
		ResDBReadUnits:    0.25 / 1e6,   // per read unit (DynamoDB on-demand)
		ResDBWriteUnits:   1.25 / 1e6,   // per write unit
		ResVMHours:        0.096,        // m5.large on-demand per hour
		ResMsgPublish:     0.05 / 1e6,   // per published message
		ResJiffyBlockSecs: 0.0000035,    // per block-second of ephemeral memory
		ResShedRequests:   0,            // free, but itemized on the invoice
	}
}

// Record is one usage entry.
type Record struct {
	Tenant   string
	Resource string
	Units    float64
}

// Meter accumulates usage, thread-safely. Per-tenant totals are exact over
// the Meter's whole lifetime and are all it keeps: its size is the number
// of distinct (tenant, resource) pairs seen, so a warm metering call on the
// invoke and publish hot paths allocates nothing.
type Meter struct {
	mu     sync.Mutex
	totals map[string]map[string]float64 // tenant → resource → units
}

// NewMeter returns an empty Meter.
func NewMeter() *Meter {
	return &Meter{totals: map[string]map[string]float64{}}
}

// Add accrues a usage record into its tenant's totals. Zero-unit records
// are dropped (they create no tenant and no line item).
func (m *Meter) Add(r Record) {
	if r.Units == 0 {
		return
	}
	m.mu.Lock()
	m.tenantLocked(r.Tenant)[r.Resource] += r.Units
	m.mu.Unlock()
}

// tenantLocked returns the tenant's totals map, creating it on first use.
func (m *Meter) tenantLocked(tenant string) map[string]float64 {
	t := m.totals[tenant]
	if t == nil {
		t = map[string]float64{}
		m.totals[tenant] = t
	}
	return t
}

// BillingGranularity is the time quantum functions are billed in. AWS Lambda
// billed per 100 ms until late 2020, the era the paper describes.
const BillingGranularity = 100 * time.Millisecond

// BilledDuration rounds d up to the billing granularity, with a minimum of
// one granule (providers charge at least one quantum per invocation).
func BilledDuration(d time.Duration) time.Duration {
	if d <= 0 {
		return BillingGranularity
	}
	g := int64(BillingGranularity)
	n := (int64(d) + g - 1) / g
	return time.Duration(n * g)
}

// AddInvocation meters one function invocation: the request fee plus
// GB-seconds for the billed (rounded-up) duration at the given memory size,
// under one lock and one tenant lookup. The time parameter is unused — the
// Meter stamps nothing — and stays only because benchmark/ladder.go passes
// it; the next benchmark change drops it on both sides.
func (m *Meter) AddInvocation(tenant string, d time.Duration, memoryMB int, _ time.Time) {
	gbSeconds := BilledDuration(d).Seconds() * float64(memoryMB) / 1024.0
	m.mu.Lock()
	t := m.tenantLocked(tenant)
	if gbSeconds != 0 {
		t[ResInvocationGBs] += gbSeconds
	}
	t[ResInvocationReqs]++
	m.mu.Unlock()
}

// Units returns the total units a tenant has accrued for a resource.
func (m *Meter) Units(tenant, resource string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totals[tenant][resource]
}

// Tenants returns the sorted set of tenants with any usage.
func (m *Meter) Tenants() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.totals))
	for t := range m.totals {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Reset clears all accumulated usage.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.totals = map[string]map[string]float64{}
}

// LineItem is one priced row of an invoice.
type LineItem struct {
	Resource string
	Units    float64
	USD      float64
}

// Invoice is the priced usage of one tenant.
type Invoice struct {
	Tenant string
	Lines  []LineItem
	Total  float64
}

// Invoice prices a tenant's accumulated usage.
func (m *Meter) Invoice(tenant string, p Pricing) Invoice {
	m.mu.Lock()
	defer m.mu.Unlock()
	inv := Invoice{Tenant: tenant}
	resources := make([]string, 0, len(m.totals[tenant]))
	for r := range m.totals[tenant] {
		resources = append(resources, r)
	}
	sort.Strings(resources)
	for _, r := range resources {
		units := m.totals[tenant][r]
		usd := units * p[r]
		inv.Lines = append(inv.Lines, LineItem{Resource: r, Units: units, USD: usd})
		inv.Total += usd
	}
	return inv
}

// String renders the invoice as a fixed-width table.
func (inv Invoice) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invoice for %s\n", inv.Tenant)
	for _, l := range inv.Lines {
		fmt.Fprintf(&b, "  %-22s %16.4f units  $%12.6f\n", l.Resource, l.Units, l.USD)
	}
	fmt.Fprintf(&b, "  %-22s %35s$%12.6f\n", "total", "", inv.Total)
	return b.String()
}

// ReservedCost is the server-centric baseline of §2: a fleet of vms VMs
// reserved for the full wall-clock window, billed per VM-hour whether used or
// not. Partial hours are billed in full, as on-demand pricing does.
func ReservedCost(vms int, window time.Duration, p Pricing) float64 {
	hours := math.Ceil(window.Hours())
	if hours < 1 && window > 0 {
		hours = 1
	}
	return float64(vms) * hours * p[ResVMHours]
}

// VMsForPeak returns the number of VMs a server-centric deployment must
// reserve to serve a peak of peakRPS requests per second when one VM sustains
// perVMRPS. Server-centric capacity is provisioned for the peak (§3.2: peak
// load is several times the mean).
func VMsForPeak(peakRPS, perVMRPS float64) int {
	if peakRPS <= 0 {
		return 0
	}
	return int(math.Ceil(peakRPS / perVMRPS))
}
