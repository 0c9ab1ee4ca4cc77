// Package obs is the platform's observability substrate: a low-overhead
// metrics registry (sharded counters, gauges, fixed-bucket latency
// histograms) plus a span tracer that timestamps from simclock.Clock — so
// the same instrumentation is deterministic under the virtual clock and real
// under wall time.
//
// Everything is nil-safe by contract: a nil *Registry hands out nil
// instruments, and every method on a nil instrument is a no-op. Subsystems
// therefore instrument their hot paths unconditionally and pay only a
// predicted branch when observability is off. A subsystem takes its registry
// through its own SetObs, which resolves every handle it needs by name once;
// each such lookup — a counter, gauge, histogram, labeled family (CounterVec
// and HistogramVec are one generic family over their instrument), a family's
// series or an SLO tenant — is one get-or-create that takes a read lock when
// the instrument exists. The cost when it is on is an
// atomic load of the shards' pointer and one atomic add per counter
// increment; per histogram observation an atomic load of the bucket block's
// pointer, a bit-twiddle, two atomic adds (bucket, sum) and one atomic load
// of the max (a compare-and-swap only on a new maximum; with a trace id, a
// load of the exemplar block's pointer and a store) — the count is the
// buckets' total, summed at Snapshot, not a third add; and one atomic load
// plus one atomic add per Start on a tracer at its cap. The benchmark
// ladder's obs.invoke_tax_ns and obs.publish_tax_ns rungs keep this honest.
// A subsystem may pay less still by batching its writes and folding them in
// before every registry read, through Registry.OnRead: a faas invoke writes
// one 40-byte record to its function's invoke log in place of its counter
// adds, histogram observations and SLO cell, and the log is replayed into
// those when it fills or someone reads (DESIGN.md §5). Registry reads
// (Snapshot, the exporters, CounterValue, the SLO engine's Snapshot and
// WriteSLOText) see every such write; a read on an instrument handle
// (Counter.Value, Histogram.Snapshot) sees only what has been folded.
//
// What it holds is sized by use (DESIGN.md §5, §10): a counter is an 8-byte
// header until its first Add, a histogram a 32-byte one until its first
// observation (and its exemplars until its first traced one), a tenant's SLO
// ring the 16-byte cells its traffic's epochs need, and a retained span a
// delta-varint record of about 12 bytes in a chunked byte log, so the
// tracer's log at its cap is about 200 KB the collector never scans. What a
// batching subsystem has not folded yet costs nothing here: a platform
// nobody reads whose functions run a few times each never buys their
// instruments' blocks and shards.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/simclock"
)

// shardCount stripes counter cells across cache lines so concurrent
// incrementers on different goroutines rarely contend. Must be a power of 2.
const shardCount = 16

// cell is a cache-line-padded atomic counter shard.
type cell struct {
	v int64
	_ [56]byte // pad to 64 bytes so shards never share a line
}

// shardIdx picks a shard from the calling goroutine's stack address. Stacks
// live in distinct allocations, so different goroutines hash to different
// shards with high probability, at the cost of one stack-variable address —
// no goroutine IDs, no thread-locals.
func shardIdx() int {
	var b byte
	return int((uintptr(unsafe.Pointer(&b)) >> 10) & (shardCount - 1))
}

// Counter is a monotonically increasing sharded counter: an 8-byte header
// until its first Add allocates its 1 KB of shards.
type Counter struct {
	shards atomic.Pointer[[shardCount]cell] // nil until the first Add
}

// firstShards installs the shards on the first Add. Concurrent first adders
// each build them; one wins the swap and the rest drop theirs.
func (c *Counter) firstShards() *[shardCount]cell {
	c.shards.CompareAndSwap(nil, new([shardCount]cell))
	return c.shards.Load()
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	s := c.shards.Load()
	if s == nil {
		s = c.firstShards()
	}
	atomic.AddInt64(&s[shardIdx()].v, n)
}

// Value returns the counter's current total (0 on nil or before the first Add).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	s := c.shards.Load()
	if s == nil {
		return 0
	}
	var total int64
	for i := range s {
		total += atomic.LoadInt64(&s[i].v)
	}
	return total
}

// Gauge is an instantaneous float64 value (pool sizes, backlogs, occupancy).
type Gauge struct {
	bits uint64 // math.Float64bits of the current value
}

// Set replaces the gauge's value. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.bits, math.Float64bits(v))
}

// Add shifts the gauge by delta. No-op on nil.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := atomic.LoadUint64(&g.bits)
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(&g.bits, old, next) {
			return
		}
	}
}

// Value returns the gauge's current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.bits))
}

// Histogram bucket layout: log-linear (HDR-style). Each power-of-two range
// is split into 2^subBuckets linear sub-buckets, giving a fixed 496-bucket
// array covering the whole int64 nanosecond range (1ns to ~292y) with
// ≤ 12.5% relative error — plenty for latency percentiles, and bucketOf is
// pure bit arithmetic.
const (
	subBuckets = 3
	subCount   = 1 << subBuckets // 8 sub-buckets per octave
	// Buckets 0..subCount-1 are exact; octaves subBuckets..63 contribute
	// subCount buckets each: (64-subBuckets-1+1)*subCount + subCount = 496.
	maxBucket = (64-subBuckets)*subCount + subCount - 1 // 495
)

// bucketOf maps a non-negative nanosecond value to its bucket index.
func bucketOf(ns int64) int {
	if ns < subCount {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	u := uint64(ns)
	exp := bits.Len64(u) - 1 // position of the top bit, ≥ subBuckets
	mantissa := int((u >> (uint(exp) - subBuckets)) & (subCount - 1))
	return (exp-subBuckets+1)*subCount + mantissa
}

// bucketUpper returns the inclusive upper bound (ns) of bucket idx.
func bucketUpper(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	exp := uint(idx/subCount + subBuckets - 1)
	mantissa := uint64(idx % subCount)
	lower := uint64(1) << exp // value with top bit at exp, mantissa 0
	step := lower / subCount
	upper := lower + (mantissa+1)*step - 1
	if upper > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(upper)
}

// Histogram is a fixed-bucket histogram. Latency histograms observe duration
// nanoseconds; value histograms (ValueHistogram) observe raw counts like
// batch sizes. Snapshots expose count, sum, and p50/p95/p99.
//
// A histogram nothing has been observed into is this header: its 4 KB of
// buckets are a block allocated by the first observation and its 4 KB of
// exemplars a second one allocated by the first with a trace id, so a
// platform pays for what its workload observes and traces, not what it registers.
type Histogram struct {
	block atomic.Pointer[histBlock] // nil until the first observation
	sum   int64                     // nanoseconds (or raw units for value histograms)
	max   int64
	value bool // set once at creation: observations are unitless counts
}

type histBlock struct {
	// exemplars holds the most recent trace id observed per bucket (0 = none),
	// so a slow percentile bucket links to a concrete trace; nil until the
	// first traced observation. First, so the collector scans one word.
	exemplars atomic.Pointer[[maxBucket + 1]int64]
	buckets   [maxBucket + 1]int64
}

// firstBlock installs the block on the first observation. Concurrent first
// observers each build one; one wins the swap and the rest drop theirs.
func (h *Histogram) firstBlock() *histBlock {
	h.block.CompareAndSwap(nil, new(histBlock))
	return h.block.Load()
}

// firstExemplars installs the exemplar block on the first traced
// observation, the same way.
func (b *histBlock) firstExemplars() *[maxBucket + 1]int64 {
	b.exemplars.CompareAndSwap(nil, new([maxBucket + 1]int64))
	return b.exemplars.Load()
}

// Observe records one duration. No-op on nil.
func (h *Histogram) Observe(d time.Duration) {
	h.observe(int64(d), 0)
}

// ObserveTrace records one duration and attaches traceID as the bucket's
// exemplar (ignored when 0). No-op on nil.
func (h *Histogram) ObserveTrace(d time.Duration, traceID int64) {
	h.observe(int64(d), traceID)
}

// ObserveValue records one raw observation (e.g. a batch size). No-op on nil.
func (h *Histogram) ObserveValue(ns int64) {
	h.observe(ns, 0)
}

func (h *Histogram) observe(ns, traceID int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	blk := h.block.Load()
	if blk == nil {
		blk = h.firstBlock()
	}
	b := bucketOf(ns)
	atomic.AddInt64(&blk.buckets[b], 1)
	if traceID != 0 {
		ex := blk.exemplars.Load()
		if ex == nil {
			ex = blk.firstExemplars()
		}
		atomic.StoreInt64(&ex[b], traceID)
	}
	atomic.AddInt64(&h.sum, ns)
	for {
		old := atomic.LoadInt64(&h.max)
		if ns <= old || atomic.CompareAndSwapInt64(&h.max, old, ns) {
			break
		}
	}
}

// HistogramSnapshot is a point-in-time view of a Histogram. ExemplarP95 and
// ExemplarP99 are trace ids observed in the p95/p99 buckets (0 = none) —
// the hook for "this slow bucket, show me a trace".
type HistogramSnapshot struct {
	Count       int64         `json:"count"`
	Sum         time.Duration `json:"sum_ns"`
	Mean        time.Duration `json:"mean_ns"`
	P50         time.Duration `json:"p50_ns"`
	P95         time.Duration `json:"p95_ns"`
	P99         time.Duration `json:"p99_ns"`
	Max         time.Duration `json:"max_ns"`
	ExemplarP95 int64         `json:"exemplar_p95,omitempty"`
	ExemplarP99 int64         `json:"exemplar_p99,omitempty"`
}

// Snapshot computes the histogram's current percentiles. Zero value on nil.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	blk := h.block.Load()
	if blk == nil {
		return HistogramSnapshot{}
	}
	var counts [maxBucket + 1]int64
	var total int64
	for i := range blk.buckets {
		counts[i] = atomic.LoadInt64(&blk.buckets[i])
		total += counts[i]
	}
	snap := HistogramSnapshot{
		Count: total,
		Sum:   time.Duration(atomic.LoadInt64(&h.sum)),
		Max:   time.Duration(atomic.LoadInt64(&h.max)),
	}
	if total == 0 {
		return snap
	}
	snap.Mean = snap.Sum / time.Duration(total)
	quantile := func(q float64) (time.Duration, int) {
		// rank is 1-based: the ceil(q*total)-th smallest observation.
		rank := int64(math.Ceil(q * float64(total)))
		if rank < 1 {
			rank = 1
		}
		var seen int64
		for i, c := range counts {
			seen += c
			if seen >= rank {
				up := bucketUpper(i)
				if time.Duration(up) > snap.Max {
					return snap.Max, i
				}
				return time.Duration(up), i
			}
		}
		return snap.Max, maxBucket
	}
	var b95, b99 int
	snap.P50, _ = quantile(0.50)
	snap.P95, b95 = quantile(0.95)
	snap.P99, b99 = quantile(0.99)
	if ex := blk.exemplars.Load(); ex != nil {
		snap.ExemplarP95 = atomic.LoadInt64(&ex[b95])
		snap.ExemplarP99 = atomic.LoadInt64(&ex[b99])
	}
	return snap
}

// Registry hands out named instruments and snapshots them. Instrument
// lookup takes a read lock; hot paths resolve their instruments once at
// setup time and then touch only atomics.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	cvecs    map[string]*family[Counter]
	hvecs    map[string]*family[Histogram]
	help     map[string]string
	onRead   []func()

	slo    *SLOEngine
	tracer *Tracer
}

// New creates a Registry (and its Tracer) on the given clock. A nil clock
// defaults to the real clock.
func New(clock simclock.Clock) *Registry {
	if clock == nil {
		clock = simclock.Real{}
	}
	r := &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		cvecs:    map[string]*family[Counter]{},
		hvecs:    map[string]*family[Histogram]{},
		help:     map[string]string{},
		tracer:   newTracer(clock),
	}
	r.slo = newSLOEngine(clock, r.fold)
	return r
}

// Counter returns (creating if needed) the named counter. Nil registry →
// nil counter, whose methods no-op.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(&r.mu, r.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns (creating if needed) the named gauge. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(&r.mu, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns (creating if needed) the named histogram. Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	return r.histogram(name, false)
}

// ValueHistogram returns (creating if needed) a histogram whose observations
// are unitless counts (batch sizes, fan-in, occupancy) rather than durations.
// Exporters render it without seconds conversion. Nil-safe.
func (r *Registry) ValueHistogram(name string) *Histogram {
	return r.histogram(name, true)
}

func (r *Registry) histogram(name string, value bool) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(&r.mu, r.hists, name, func() *Histogram { return &Histogram{value: value} })
}

// CounterVec returns (creating if needed) the named labeled counter family.
// Label keys are fixed at first creation; a later call with different keys
// returns the existing vec (keys are a schema, not per-call data). Nil-safe.
func (r *Registry) CounterVec(name string, labelKeys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return (*CounterVec)(lookup(&r.mu, r.cvecs, name, func() *family[Counter] { return newFamily[Counter](name, labelKeys) }))
}

// HistogramVec returns (creating if needed) the named labeled latency
// histogram family. Nil-safe.
func (r *Registry) HistogramVec(name string, labelKeys ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return (*HistogramVec)(lookup(&r.mu, r.hvecs, name, func() *family[Histogram] { return newFamily[Histogram](name, labelKeys) }))
}

// SetHelp attaches a help string to a metric name; exporters emit it as
// `# HELP` (escaped). Nil-safe.
func (r *Registry) SetHelp(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = text
	r.mu.Unlock()
}

// SLO returns the registry's per-tenant SLO engine. Nil registry → nil
// engine, whose methods no-op.
func (r *Registry) SLO() *SLOEngine {
	if r == nil {
		return nil
	}
	return r.slo
}

// OnRead registers fold to run before every read of the registry: Snapshot
// (and the exporters and /metrics on it), CounterValue, and the SLO engine's
// Snapshot and WriteSLOText. A subsystem that batches its writes (faas's
// per-function invoke logs) folds them into its instruments here, so a read
// sees every write made before it. fold runs with no registry lock held;
// reads on an instrument handle (Counter.Value, Histogram.Snapshot) do not
// run it. Nil-safe.
func (r *Registry) OnRead(fold func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.onRead = append(r.onRead, fold)
	r.mu.Unlock()
}

// fold runs the OnRead hooks.
func (r *Registry) fold() {
	r.mu.RLock()
	hooks := r.onRead
	r.mu.RUnlock()
	for _, f := range hooks {
		f()
	}
}

// Tracer returns the registry's tracer (nil on a nil registry).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Snapshot is a point-in-time view of every instrument, sorted by name
// (then by label values for labeled series).
type Snapshot struct {
	Counters   []CounterSnapshot `json:"counters"`
	Gauges     []GaugeSnapshot   `json:"gauges"`
	Histograms []NamedHistogram  `json:"histograms"`
	SLOs       []SLOSnapshot     `json:"slos,omitempty"`
}

// CounterSnapshot is one counter's value. Labels is nil for plain counters.
type CounterSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// GaugeSnapshot is one gauge's value.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// NamedHistogram is one histogram's snapshot. Unit is "ns" for latency
// histograms and "count" for value histograms. Labels is nil for plain
// histograms.
type NamedHistogram struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Labels []Label `json:"labels,omitempty"`
	HistogramSnapshot
}

// labelsLess orders label sets lexicographically by value sequence.
func labelsLess(a, b []Label) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].Value != b[i].Value {
			return a[i].Value < b[i].Value
		}
	}
	return len(a) < len(b)
}

// Snapshot captures every instrument, after the OnRead hooks have folded
// what they hold. Empty snapshot on nil.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.fold()
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	cvecs := make([]*family[Counter], 0, len(r.cvecs))
	for _, v := range r.cvecs {
		cvecs = append(cvecs, v)
	}
	hvecs := make([]*family[Histogram], 0, len(r.hvecs))
	for _, v := range r.hvecs {
		hvecs = append(hvecs, v)
	}
	r.mu.RUnlock()

	var snap Snapshot
	for name, c := range counters {
		snap.Counters = append(snap.Counters, CounterSnapshot{Name: name, Value: c.Value()})
	}
	for _, v := range cvecs {
		v.each(func(labels []Label, c *Counter) {
			snap.Counters = append(snap.Counters, CounterSnapshot{Name: v.name, Labels: labels, Value: c.Value()})
		})
	}
	for name, g := range gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnapshot{Name: name, Value: g.Value()})
	}
	for name, h := range hists {
		unit := "ns"
		if h.value {
			unit = "count"
		}
		snap.Histograms = append(snap.Histograms, NamedHistogram{Name: name, Unit: unit, HistogramSnapshot: h.Snapshot()})
	}
	for _, v := range hvecs {
		v.each(func(labels []Label, h *Histogram) {
			snap.Histograms = append(snap.Histograms, NamedHistogram{Name: v.name, Unit: "ns", Labels: labels, HistogramSnapshot: h.Snapshot()})
		})
	}
	snap.SLOs = r.slo.evaluate()
	sort.Slice(snap.Counters, func(i, j int) bool {
		if snap.Counters[i].Name != snap.Counters[j].Name {
			return snap.Counters[i].Name < snap.Counters[j].Name
		}
		return labelsLess(snap.Counters[i].Labels, snap.Counters[j].Labels)
	})
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool {
		if snap.Histograms[i].Name != snap.Histograms[j].Name {
			return snap.Histograms[i].Name < snap.Histograms[j].Name
		}
		return labelsLess(snap.Histograms[i].Labels, snap.Histograms[j].Labels)
	})
	return snap
}

// helpFor returns the registered help string for a metric ("" if none).
func (r *Registry) helpFor(name string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.help[name]
}

// CounterValue is a convenience lookup, after the OnRead hooks have folded
// (0 if absent or nil registry).
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.fold()
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	return c.Value()
}
