package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/seglog"
	"repro/internal/simclock"
)

// DefaultMaxSpans bounds how many finished spans a Tracer retains. Beyond
// the cap new spans are counted but dropped, so a long-running simulation
// cannot grow memory without bound.
const DefaultMaxSpans = 16384

// DefaultMaxActiveTraces bounds how many traces may be in flight (staged,
// not yet finalized) at once. A root span that is never ended would
// otherwise pin its staging buffer forever; the cap turns that bug into a
// counted drop instead of a leak.
const DefaultMaxActiveTraces = 1024

// TraceCtx is the compact causal context threaded across subsystem
// boundaries: the trace id plus the span id of the propagating parent. It
// is two int64s passed by value — no allocation, safe to stash in pooled
// request records and arena-backed messages (it is copied, never aliased).
// The zero value means "untraced"; every trace-aware API treats it as
// "do not trace".
type TraceCtx struct {
	Trace int64 `json:"trace_id"`
	Span  int64 `json:"span_id"`
}

// Valid reports whether the context belongs to a live trace.
func (tc TraceCtx) Valid() bool { return tc.Trace != 0 }

// SpanData is one finished span. Timestamps come from the tracer's clock:
// deterministic simulated instants under simclock.Virtual, wall time under
// simclock.Real.
type SpanData struct {
	TraceID  int64         `json:"trace_id"`
	SpanID   int64         `json:"span_id"`
	ParentID int64         `json:"parent_id,omitempty"` // 0 for roots
	Name     string        `json:"name"`
	Tenant   string        `json:"tenant,omitempty"`
	Fn       string        `json:"fn,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Err      bool          `json:"err,omitempty"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// Attr is one span annotation.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SamplerConfig drives deterministic tail sampling. Decisions are made when
// a trace finalizes (root ended, no open children): error traces and traces
// at/above SlowThreshold are always kept; of the rest, a seeded hash of the
// root span's (name, virtual start instant) keeps KeepFraction. Because the
// fingerprint never involves span ids — which depend on goroutine
// interleaving between virtual-clock advances — two runs of the same
// simulation keep byte-identical trace sets.
type SamplerConfig struct {
	Seed          int64
	KeepFraction  float64       // fraction of normal traces kept, 0..1
	SlowThreshold time.Duration // root duration ≥ threshold is always kept (0 disables)
}

// spanRec is a retained span as spanLog decodes it: 56 bytes, no pointer.
// Strings are indexes into the tracer's table, attrs a 1-based index into
// its side log, Start nanoseconds since the Unix epoch (rebuilt in the
// clock's location on read).
type spanRec struct {
	trace, span, parent int64
	start, dur          int64
	name, tenant, fn    uint32
	attrs               uint32 // recErr | 1-based index into Tracer.attrs, 0 = none
}

// recErr is SpanData.Err, kept in the attrs index's spare top bit.
const recErr = 1 << 31

// traceBuf stages the spans of one in-flight trace until the sampler can
// rule on the whole thing. Buffers are recycled through a free list so
// steady-state tracing allocates nothing.
type traceBuf struct {
	spans      []SpanData
	open       int // spans started but not yet ended
	rootDone   bool
	rootName   string
	rootTenant string
	rootStart  time.Time
	rootDur    time.Duration
	rootErr    bool
}

// Tracer creates and collects spans with tail sampling: spans stage in
// per-trace buffers and move to the bounded retention log only when the
// trace finalizes and the sampler keeps it.
type Tracer struct {
	clock  simclock.Clock
	loc    *time.Location // of every instant clock hands out
	nextID int64

	// full flips once the retained log reaches maxSpans; from then on Start
	// returns an inert SpanRef, so steady-state tracing after the cap costs
	// one atomic load and one atomic add (dropped) — no mutex, no staging
	// work per span.
	full      atomic.Bool
	samplerOn atomic.Bool
	dropped   atomic.Int64 // spans dropped at the retention/active caps

	mu     sync.Mutex
	active map[int64]*traceBuf
	free   []*traceBuf
	// retained is the finished-span log, first maxSpans kept. Chunked: a
	// span is written once and never moved, so finalizing a trace never
	// re-copies the history while every Start/End waits on mu. Only a kept
	// span is converted, so strs, strIdx and attrs hold what retained refers
	// to and nothing else: at most 3, 3 and 1 entries per retained span.
	retained spanLog
	strs     []string          // strs[0] == ""
	strIdx   map[string]uint32 // inverse of strs
	attrs    seglog.Log[[]Attr]

	late      int64 // spans whose parent trace already finalized
	sampled   int64 // spans discarded by the sampler (whole traces)
	kept      int64 // traces kept by the sampler
	discarded int64 // traces discarded by the sampler
	maxSpans  int
	maxActive int
	sampler   SamplerConfig
}

func newTracer(clock simclock.Clock) *Tracer {
	return &Tracer{
		clock:     clock,
		loc:       clock.Now().Location(),
		strs:      []string{""},
		strIdx:    map[string]uint32{},
		active:    map[int64]*traceBuf{},
		maxSpans:  DefaultMaxSpans,
		maxActive: DefaultMaxActiveTraces,
	}
}

// NewTracer creates a standalone tracer on the given clock (nil → real).
func NewTracer(clock simclock.Clock) *Tracer {
	if clock == nil {
		clock = simclock.Real{}
	}
	return newTracer(clock)
}

// SetMaxSpans adjusts the retained-span cap (≤0 restores the default).
func (t *Tracer) SetMaxSpans(n int) {
	if t == nil {
		return
	}
	if n <= 0 {
		n = DefaultMaxSpans
	}
	t.mu.Lock()
	t.maxSpans = n
	t.full.Store(t.retained.n >= n)
	t.mu.Unlock()
}

// SetSampler enables tail sampling with cfg. The zero SamplerConfig keeps
// only error traces (KeepFraction 0, no slow threshold); call ClearSampler
// to restore keep-everything.
func (t *Tracer) SetSampler(cfg SamplerConfig) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sampler = cfg
	t.mu.Unlock()
	t.samplerOn.Store(true)
}

// ClearSampler restores the default keep-every-trace behavior.
func (t *Tracer) ClearSampler() {
	if t == nil {
		return
	}
	t.samplerOn.Store(false)
}

// SpanRef is an in-flight span handle, passed by value so starting and
// ending a span allocates nothing. The zero SpanRef is inert: every method
// no-ops, so callers trace unconditionally against nil tracers, full
// tracers, and untraced requests alike.
type SpanRef struct {
	t      *Tracer
	tc     TraceCtx
	parent int64
	start  time.Time
	name   string
}

// Ctx returns the context to hand to children (zero on an inert ref).
func (s SpanRef) Ctx() TraceCtx { return s.tc }

// TraceID returns the span's trace id (0 on an inert ref).
func (s SpanRef) TraceID() int64 { return s.tc.Trace }

// Active reports whether the ref belongs to a live trace.
func (s SpanRef) Active() bool { return s.t != nil }

// Start opens a span. A zero parent begins a new trace (the span becomes
// the root); a valid parent attaches a child to that trace. If the parent's
// trace has already finalized — e.g. a backlog redelivery long after the
// originating request completed — the span is counted late and dropped
// rather than resurrecting the trace.
func (t *Tracer) Start(parent TraceCtx, name string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	if t.full.Load() {
		t.dropped.Add(1)
		return SpanRef{}
	}
	now := t.clock.Now()
	id := atomic.AddInt64(&t.nextID, 1)
	t.mu.Lock()
	if parent.Trace == 0 {
		if len(t.active) >= t.maxActive {
			t.dropped.Add(1)
			t.mu.Unlock()
			return SpanRef{}
		}
		buf := t.takeBufLocked()
		buf.open = 1
		t.active[id] = buf
		t.mu.Unlock()
		return SpanRef{t: t, tc: TraceCtx{Trace: id, Span: id}, start: now, name: name}
	}
	buf := t.active[parent.Trace]
	if buf == nil {
		t.late++
		t.mu.Unlock()
		return SpanRef{}
	}
	buf.open++
	t.mu.Unlock()
	return SpanRef{t: t, tc: TraceCtx{Trace: parent.Trace, Span: id}, parent: parent.Span, start: now, name: name}
}

// End finishes the span successfully.
func (s SpanRef) End() { s.finish(false, "", "", nil) }

// EndErr finishes the span, flagging it (and its trace) failed when failed
// is true — failed traces are always kept by the tail sampler.
func (s SpanRef) EndErr(failed bool) { s.finish(failed, "", "", nil) }

// EndLabeled finishes the span with tenant/function attribution, used by
// root spans so trace queries can filter by tenant.
func (s SpanRef) EndLabeled(tenant, fn string, failed bool) { s.finish(failed, tenant, fn, nil) }

// EndAttrs finishes the span with annotations (the one allocating way to
// end a span: the attrs slice is retained with the finished record).
func (s SpanRef) EndAttrs(failed bool, attrs ...Attr) { s.finish(failed, "", "", attrs) }

func (s SpanRef) finish(failed bool, tenant, fn string, attrs []Attr) {
	t := s.t
	if t == nil {
		return
	}
	dur := t.clock.Now().Sub(s.start)
	t.mu.Lock()
	buf := t.active[s.tc.Trace]
	if buf == nil { // double End, or trace force-reset underneath us
		t.mu.Unlock()
		return
	}
	buf.spans = append(buf.spans, SpanData{
		TraceID:  s.tc.Trace,
		SpanID:   s.tc.Span,
		ParentID: s.parent,
		Name:     s.name,
		Tenant:   tenant,
		Fn:       fn,
		Start:    s.start,
		Duration: dur,
		Err:      failed,
		Attrs:    attrs,
	})
	buf.open--
	if s.tc.Span == s.tc.Trace {
		buf.rootDone = true
		buf.rootName = s.name
		buf.rootTenant = tenant
		buf.rootStart = s.start
		buf.rootDur = dur
	}
	if failed {
		buf.rootErr = true // any failed span marks the whole trace for keeping
	}
	if buf.rootDone && buf.open <= 0 {
		t.finalizeLocked(s.tc.Trace, buf)
	}
	t.mu.Unlock()
}

// finalizeLocked rules on a completed trace: sampler decision, then either
// move its spans into the retention log or discard them. Caller holds
// t.mu.
func (t *Tracer) finalizeLocked(id int64, buf *traceBuf) {
	delete(t.active, id)
	keep := true
	if t.samplerOn.Load() {
		cfg := t.sampler
		keep = buf.rootErr ||
			(cfg.SlowThreshold > 0 && buf.rootDur >= cfg.SlowThreshold) ||
			sampleKeep(buf.rootName, buf.rootStart.UnixNano(), cfg.Seed, cfg.KeepFraction)
	}
	if keep {
		t.kept++
		for i := range buf.spans {
			if t.retained.n < t.maxSpans {
				t.retained.Append(t.recordLocked(&buf.spans[i]))
			} else {
				t.dropped.Add(1)
			}
		}
		if t.retained.n >= t.maxSpans {
			t.full.Store(true)
		}
	} else {
		t.discarded++
		t.sampled += int64(len(buf.spans))
	}
	t.recycleBufLocked(buf)
}

func (t *Tracer) takeBufLocked() *traceBuf {
	if n := len(t.free); n > 0 {
		buf := t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
		return buf
	}
	return &traceBuf{spans: make([]SpanData, 0, 16)}
}

func (t *Tracer) recycleBufLocked(buf *traceBuf) {
	for i := range buf.spans {
		buf.spans[i] = SpanData{} // release attr/string references
	}
	spans := buf.spans[:0]
	*buf = traceBuf{spans: spans}
	if len(t.free) < 64 {
		t.free = append(t.free, buf)
	}
}

// recordLocked converts a kept span to its retained form, interning its
// strings. The table grows only on a string not seen before, which a
// platform's handful of span names, tenants and functions stop supplying
// long before the log fills. Caller holds t.mu.
func (t *Tracer) recordLocked(sd *SpanData) spanRec {
	rec := spanRec{
		trace: sd.TraceID, span: sd.SpanID, parent: sd.ParentID,
		start: sd.Start.UnixNano(), dur: int64(sd.Duration),
		name: t.internLocked(sd.Name), tenant: t.internLocked(sd.Tenant), fn: t.internLocked(sd.Fn),
	}
	if len(sd.Attrs) > 0 {
		t.attrs.Append(sd.Attrs)
		rec.attrs = uint32(t.attrs.Len())
	}
	if sd.Err {
		rec.attrs |= recErr
	}
	return rec
}

func (t *Tracer) internLocked(s string) uint32 {
	if s == "" {
		return 0
	}
	i, ok := t.strIdx[s]
	if !ok {
		i = uint32(len(t.strs))
		t.strs = append(t.strs, s)
		t.strIdx[s] = i
	}
	return i
}

// spanLocked materializes a retained record as the public type. Caller
// holds t.mu.
func (t *Tracer) spanLocked(rec *spanRec) SpanData {
	sd := SpanData{
		TraceID: rec.trace, SpanID: rec.span, ParentID: rec.parent,
		Name: t.strs[rec.name], Tenant: t.strs[rec.tenant], Fn: t.strs[rec.fn],
		Start:    time.Unix(0, rec.start).In(t.loc),
		Duration: time.Duration(rec.dur),
		Err:      rec.attrs&recErr != 0,
	}
	if a := rec.attrs &^ recErr; a != 0 {
		sd.Attrs = *t.attrs.At(int(a) - 1)
	}
	return sd
}

// sampleKeep is the deterministic sampling fingerprint: FNV-1a over the
// root name, the root's virtual start instant, and the seed. Span/trace ids
// are deliberately excluded — they depend on goroutine scheduling between
// virtual-clock advances and would break rerun determinism.
func sampleKeep(name string, startNs, seed int64, frac float64) bool {
	if frac >= 1 {
		return true
	}
	if frac <= 0 {
		return false
	}
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime
	}
	for i := uint(0); i < 64; i += 8 {
		h = (h ^ uint64(byte(startNs>>i))) * prime
		h = (h ^ uint64(byte(seed>>i))) * prime
	}
	return float64(h%1000000)/1000000 < frac
}

// ---------------------------------------------------------------------------
// Queries and exports.
// ---------------------------------------------------------------------------

// Spans returns a copy of all retained spans, in completion order (within a
// trace) and trace-finalization order (across traces). Empty on nil.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, 0, t.retained.n)
	for c := t.retained.cursor(); c.next(); {
		out = append(out, t.spanLocked(&c.rec))
	}
	return out
}

// Dropped reports how many spans were discarded at the retention or
// active-trace caps (not sampler discards — see Stats).
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// TracerStats breaks down where spans went.
type TracerStats struct {
	Retained        int   `json:"retained_spans"`
	ActiveTraces    int   `json:"active_traces"`
	KeptTraces      int64 `json:"kept_traces"`
	DiscardedTraces int64 `json:"discarded_traces"`
	SampledOutSpans int64 `json:"sampled_out_spans"`
	DroppedSpans    int64 `json:"dropped_spans"`
	LateSpans       int64 `json:"late_spans"`
}

// Stats returns the tracer's bookkeeping counters. Zero value on nil.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TracerStats{
		Retained:        t.retained.n,
		ActiveTraces:    len(t.active),
		KeptTraces:      t.kept,
		DiscardedTraces: t.discarded,
		SampledOutSpans: t.sampled,
		DroppedSpans:    t.dropped.Load(),
		LateSpans:       t.late,
	}
}

// Reset discards all retained and in-flight spans and zeroes every counter.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.retained = spanLog{}
	t.strs = t.strs[:1]
	clear(t.strIdx)
	t.attrs = seglog.Log[[]Attr]{}
	t.dropped.Store(0)
	t.late = 0
	t.sampled = 0
	t.kept = 0
	t.discarded = 0
	for id, buf := range t.active {
		delete(t.active, id)
		t.recycleBufLocked(buf)
	}
	t.full.Store(false)
	t.mu.Unlock()
}

// TraceSummary is the root-level view of one retained trace.
type TraceSummary struct {
	TraceID  int64         `json:"trace_id"`
	Name     string        `json:"name"`
	Tenant   string        `json:"tenant,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Spans    int           `json:"spans"`
	Err      bool          `json:"err,omitempty"`
}

// Traces summarizes the retained traces, slowest-first would be a caller
// sort; here they come ordered by root start instant (ties by name). Traces
// whose root span fell past the retention cap are omitted.
func (t *Tracer) Traces() []TraceSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	byID := make(map[int64]*TraceSummary)
	order := make([]int64, 0, 64)
	for c := t.retained.cursor(); c.next(); {
		rec := &c.rec
		ts := byID[rec.trace]
		if ts == nil {
			ts = &TraceSummary{TraceID: rec.trace}
			byID[rec.trace] = ts
			order = append(order, rec.trace)
		}
		ts.Spans++
		if rec.attrs&recErr != 0 {
			ts.Err = true
		}
		if rec.span == rec.trace { // root
			sd := t.spanLocked(rec)
			ts.Name = sd.Name
			ts.Tenant = sd.Tenant
			ts.Start = sd.Start
			ts.Duration = sd.Duration
		}
	}
	t.mu.Unlock()
	out := make([]TraceSummary, 0, len(order))
	for _, id := range order {
		ts := byID[id]
		if ts.Name == "" { // root span lost at the cap
			continue
		}
		out = append(out, *ts)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TraceSpans returns the retained spans of one trace, in completion order.
func (t *Tracer) TraceSpans(traceID int64) []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanData
	for c := t.retained.cursor(); c.next(); {
		if c.rec.trace == traceID {
			out = append(out, t.spanLocked(&c.rec))
		}
	}
	return out
}

// ExportJSON renders the retained spans as a JSON array — the trace format
// the EXPERIMENTS.md analyses consume. Returns "[]" on a nil tracer.
func (t *Tracer) ExportJSON() ([]byte, error) {
	spans := t.Spans()
	if spans == nil {
		spans = []SpanData{}
	}
	return json.MarshalIndent(spans, "", "  ")
}

// CanonicalText renders the retained traces in a canonical, id-free form:
// traces sorted by (root start, content), spans as a DFS tree with children
// ordered by their own canonical rendering. Span and trace ids are omitted
// because they depend on goroutine scheduling; everything else — names,
// virtual timestamps, durations, tenants, error flags, attributes — is
// deterministic under simclock.Virtual, so two identical runs produce
// byte-identical text (and CanonicalDigest hashes).
func (t *Tracer) CanonicalText() string {
	if t == nil {
		return ""
	}
	spans := t.Spans()
	children := make(map[int64][]*SpanData) // parent span id → children
	roots := make([]*SpanData, 0, 64)
	byTrace := make(map[int64]bool)
	for i := range spans {
		sd := &spans[i]
		byTrace[sd.TraceID] = true
		if sd.SpanID == sd.TraceID {
			roots = append(roots, sd)
		} else {
			children[sd.ParentID] = append(children[sd.ParentID], sd)
		}
	}
	var renderSpan func(sd *SpanData, depth int) string
	renderSpan = func(sd *SpanData, depth int) string {
		var b strings.Builder
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s start=%d dur=%d", sd.Name, sd.Start.UnixNano(), sd.Duration.Nanoseconds())
		if sd.Tenant != "" {
			fmt.Fprintf(&b, " tenant=%s", sd.Tenant)
		}
		if sd.Fn != "" {
			fmt.Fprintf(&b, " fn=%s", sd.Fn)
		}
		if sd.Err {
			b.WriteString(" err")
		}
		for _, a := range sd.Attrs {
			fmt.Fprintf(&b, " %s=%q", a.Key, a.Value)
		}
		b.WriteByte('\n')
		kids := children[sd.SpanID]
		rendered := make([]string, len(kids))
		for i, k := range kids {
			rendered[i] = renderSpan(k, depth+1)
		}
		sort.Strings(rendered)
		for _, r := range rendered {
			b.WriteString(r)
		}
		return b.String()
	}
	type renderedTrace struct {
		startNs int64
		text    string
	}
	out := make([]renderedTrace, 0, len(roots))
	rooted := make(map[int64]bool, len(roots))
	for _, root := range roots {
		rooted[root.TraceID] = true
		out = append(out, renderedTrace{root.Start.UnixNano(), renderSpan(root, 1)})
	}
	orphans := 0
	for id := range byTrace {
		if !rooted[id] {
			orphans++
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].startNs != out[j].startNs {
			return out[i].startNs < out[j].startNs
		}
		return out[i].text < out[j].text
	})
	var b strings.Builder
	fmt.Fprintf(&b, "traces=%d orphan_traces=%d\n", len(out), orphans)
	for _, rt := range out {
		b.WriteString("trace\n")
		b.WriteString(rt.text)
	}
	return b.String()
}

// CanonicalDigest is the sha256 of CanonicalText — the byte-identical
// rerun-determinism check used by the chaos soaks.
func (t *Tracer) CanonicalDigest() string {
	sum := sha256.Sum256([]byte(t.CanonicalText()))
	return hex.EncodeToString(sum[:])
}
