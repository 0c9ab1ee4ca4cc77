package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/simclock"
)

// spanOracle is the plain-slice model of the tracer's retention log: every
// finished span in completion order, trimmed to the first max.
type spanOracle struct {
	v     *simclock.Virtual
	tr    *Tracer
	spans []SpanData
}

// trace runs one three-span trace (two children, then the root) on the
// virtual clock and records what each span must look like from what the
// test itself observed: the ids on the SpanRef and the clock readings.
func (o *spanOracle) trace(i int) {
	end := func(ref SpanRef, parent int64, start time.Time, sd SpanData) {
		if !ref.Active() {
			return
		}
		sd.TraceID, sd.SpanID, sd.ParentID = ref.TraceID(), ref.Ctx().Span, parent
		sd.Start, sd.Duration = start, o.v.Now().Sub(start)
		o.spans = append(o.spans, sd)
	}
	failed := i%7 == 0
	tenant := fmt.Sprintf("tenant-%d", i%3)

	rootStart := o.v.Now()
	root := o.tr.Start(TraceCtx{}, "invoke")
	o.v.Sleep(time.Millisecond)

	aStart := o.v.Now()
	a := o.tr.Start(root.Ctx(), "exec")
	o.v.Sleep(time.Duration(1+i%5) * time.Millisecond)
	attrs := []Attr{{Key: "i", Value: fmt.Sprint(i)}}
	a.EndAttrs(failed, attrs...)
	end(a, root.Ctx().Span, aStart, SpanData{Name: "exec", Err: failed, Attrs: attrs})

	bStart := o.v.Now()
	b := o.tr.Start(root.Ctx(), "bill")
	o.v.Sleep(time.Millisecond)
	b.End()
	end(b, root.Ctx().Span, bStart, SpanData{Name: "bill"})

	root.EndLabeled(tenant, "fn", failed)
	end(root, 0, rootStart, SpanData{Name: "invoke", Tenant: tenant, Fn: "fn", Err: failed})
}

// canonical renders the oracle's traces the way CanonicalText documents:
// id-free, traces by root start, children by their own rendering. Every
// trace here is a root with leaf children, so the tree walk is two levels.
func (o *spanOracle) canonical() string {
	line := func(sd SpanData, indent string) string {
		s := fmt.Sprintf("%s%s start=%d dur=%d", indent, sd.Name, sd.Start.UnixNano(), sd.Duration.Nanoseconds())
		if sd.Tenant != "" {
			s += " tenant=" + sd.Tenant
		}
		if sd.Fn != "" {
			s += " fn=" + sd.Fn
		}
		if sd.Err {
			s += " err"
		}
		for _, a := range sd.Attrs {
			s += fmt.Sprintf(" %s=%q", a.Key, a.Value)
		}
		return s + "\n"
	}
	kids := map[int64][]string{}
	seen := map[int64]bool{}
	var roots []SpanData
	for _, sd := range o.spans {
		seen[sd.TraceID] = true
		if sd.SpanID == sd.TraceID {
			roots = append(roots, sd)
		} else {
			kids[sd.ParentID] = append(kids[sd.ParentID], line(sd, "    "))
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start.Before(roots[j].Start) })
	var b strings.Builder
	fmt.Fprintf(&b, "traces=%d orphan_traces=%d\n", len(roots), len(seen)-len(roots))
	for _, r := range roots {
		b.WriteString("trace\n" + line(r, "  "))
		sort.Strings(kids[r.SpanID])
		b.WriteString(strings.Join(kids[r.SpanID], ""))
	}
	return b.String()
}

func (o *spanOracle) check(t *testing.T, when string) {
	t.Helper()
	tr, want := o.tr, o.spans
	got := tr.Spans()
	if len(got) != len(want) {
		t.Fatalf("%s: Spans has %d spans, oracle %d", when, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: Spans[%d] = %+v, oracle %+v", when, i, got[i], want[i])
		}
	}
	if st := tr.Stats(); st.Retained != len(want) {
		t.Fatalf("%s: Stats.Retained = %d, oracle %d", when, st.Retained, len(want))
	}

	// Traces: one summary per trace whose root was retained, by root start.
	var sums []TraceSummary
	count, failed := map[int64]int{}, map[int64]bool{}
	for _, sd := range want {
		count[sd.TraceID]++
		failed[sd.TraceID] = failed[sd.TraceID] || sd.Err
	}
	for _, sd := range want {
		if sd.SpanID == sd.TraceID {
			sums = append(sums, TraceSummary{TraceID: sd.TraceID, Name: sd.Name, Tenant: sd.Tenant,
				Start: sd.Start, Duration: sd.Duration, Spans: count[sd.TraceID], Err: failed[sd.TraceID]})
		}
	}
	if got := tr.Traces(); len(got) != len(sums) || (len(sums) > 0 && !reflect.DeepEqual(got, sums)) {
		t.Fatalf("%s: Traces has %d summaries, oracle %d (or they differ)", when, len(got), len(sums))
	}

	wantJSON, err := json.MarshalIndent(append([]SpanData{}, want...), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON, err := tr.ExportJSON(); err != nil || !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("%s: ExportJSON (%d bytes, err %v) differs from the oracle's (%d bytes)", when, len(gotJSON), err, len(wantJSON))
	}

	text := o.canonical()
	if got := tr.CanonicalText(); got != text {
		t.Fatalf("%s: CanonicalText differs from the oracle's rendering (%d vs %d bytes)", when, len(got), len(text))
	}
}

// TestTracerReadPathsMatchOracle: every read path of the segmented span log
// (Spans, Traces, ExportJSON, CanonicalText) agrees with a plain slice across
// segment boundaries; the cap keeps the first maxSpans; lowering the cap
// below the current length keeps what is there and drops what follows.
func TestTracerReadPathsMatchOracle(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	tr := newTracer(v)
	o := &spanOracle{v: v, tr: tr}
	const traces, cap1 = 1700, 5000 // 5100 spans: the cap lands inside a trace
	tr.SetMaxSpans(cap1)
	v.Run(func() {
		o.check(t, "empty")
		for i := 0; i < traces; i++ {
			o.trace(i)
			if i == 5 || i == 16 {
				o.check(t, fmt.Sprintf("after %d traces", i+1))
			}
		}
	})
	// The oracle saw every span that was live at its End; the log keeps the
	// first cap1 of them (trace 1667 loses its root to the cap) and every
	// Start after that is dropped unstaged.
	if len(o.spans) != cap1+1 {
		t.Fatalf("oracle recorded %d finished spans, want %d", len(o.spans), cap1+1)
	}
	o.spans = o.spans[:cap1]
	o.check(t, "at the cap")
	if got, want := tr.Stats().DroppedSpans, int64(3*traces-cap1); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}

	// A cap below the current length truncates nothing and admits nothing.
	tr.SetMaxSpans(100)
	v.Run(func() { o.trace(traces) })
	if len(o.spans) != cap1 {
		t.Fatalf("a tracer over its cap handed out live spans")
	}
	o.check(t, "cap lowered below length")
	if got, want := tr.Stats().DroppedSpans, int64(3*traces-cap1+3); got != want {
		t.Fatalf("Dropped after lowering the cap = %d, want %d", got, want)
	}

	// Restoring the default cap reopens the log where it stopped.
	tr.SetMaxSpans(0)
	v.Run(func() { o.trace(traces + 1) })
	o.check(t, "cap restored")
}

// TestSpanRecordLayout: the retained record is what DESIGN.md §5 says it is —
// at most 64 bytes and nothing in it the collector has to follow, which is
// what makes the log at its cap a block the marker skips.
func TestSpanRecordLayout(t *testing.T) {
	typ := reflect.TypeOf(spanRec{})
	if typ.Size() > 64 {
		t.Errorf("spanRec is %d bytes, want <= 64", typ.Size())
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("%s is a %s: the record must hold no pointer", path, typ.Kind())
		}
	}
	walk("spanRec", typ)
}

// TestTracerKeepsNothingOfDroppedSpans: strings and attrs are interned when a
// span is retained, not when it ends, so a trace the sampler discards and a
// span that falls past the cap leave nothing in the table or the side log —
// both stay bounded by the cap however many distinct tenants pass through.
func TestTracerKeepsNothingOfDroppedSpans(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	tr := newTracer(v)
	sizes := func() [3]int {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return [3]int{len(tr.strs), len(tr.strIdx), tr.attrs.Len()}
	}
	trace := func(i int, failed bool) {
		root := tr.Start(TraceCtx{}, fmt.Sprintf("root-%d", i))
		tr.Start(root.Ctx(), fmt.Sprintf("child-%d", i)).EndAttrs(false, Attr{Key: "i", Value: fmt.Sprint(i)})
		root.EndLabeled(fmt.Sprintf("tenant-%d", i), fmt.Sprintf("fn-%d", i), failed)
	}
	if got, want := sizes(), [3]int{1, 0, 0}; got != want {
		t.Fatalf("fresh tracer holds table/index/attrs %v, want %v", got, want)
	}

	tr.SetSampler(SamplerConfig{Seed: 1}) // keeps failed traces only
	for i := 0; i < 100; i++ {
		trace(i, false)
	}
	if st := tr.Stats(); st.DiscardedTraces != 100 || st.Retained != 0 {
		t.Fatalf("stats %+v, want 100 traces discarded and nothing retained", st)
	}
	if got, want := sizes(), [3]int{1, 0, 0}; got != want {
		t.Fatalf("after 100 discarded traces the tracer holds %v, want %v", got, want)
	}

	trace(100, true) // kept: four strings and one attr set
	if got, want := sizes(), [3]int{5, 4, 1}; got != want {
		t.Fatalf("after one kept trace the tracer holds %v, want %v", got, want)
	}

	// The cap lands inside a kept trace: its root is dropped unconverted.
	tr.SetMaxSpans(3)
	trace(101, true)
	if st := tr.Stats(); st.Retained != 3 || st.DroppedSpans != 1 {
		t.Fatalf("stats %+v, want 3 retained and the root dropped at the cap", st)
	}
	if got, want := sizes(), [3]int{6, 5, 2}; got != want {
		t.Fatalf("after a trace cut by the cap the tracer holds %v, want %v (the child's name and attrs only)", got, want)
	}
	trace(102, true) // inert: the log is full
	if got, want := sizes(), [3]int{6, 5, 2}; got != want {
		t.Fatalf("a full tracer grew to %v, want %v", got, want)
	}
}

// TestTracerRealClockRoundTrip: under simclock.Real a span's Start goes
// through the record as nanoseconds and comes back the same instant in the
// same location (without the monotonic reading, which no export carries), so
// ExportJSON is byte-for-byte what the staged span would have marshalled to.
func TestTracerRealClockRoundTrip(t *testing.T) {
	tr := newTracer(simclock.Real{})
	root := tr.Start(TraceCtx{}, "invoke")
	child := tr.Start(root.Ctx(), "exec")
	child.EndAttrs(true, Attr{Key: "k", Value: "v"})
	root.EndLabeled("acme", "fn", true)

	got := tr.Spans()
	if len(got) != 2 {
		t.Fatalf("retained %d spans, want 2", len(got))
	}
	for i, ref := range []SpanRef{child, root} {
		if !got[i].Start.Equal(ref.start) || got[i].Start.Location() != ref.start.Location() {
			t.Fatalf("span %d: Start = %v, want %v in the same location", i, got[i].Start, ref.start)
		}
	}
	want := []SpanData{
		{TraceID: root.TraceID(), SpanID: child.Ctx().Span, ParentID: root.Ctx().Span, Name: "exec",
			Start: child.start, Duration: got[0].Duration, Err: true, Attrs: []Attr{{Key: "k", Value: "v"}}},
		{TraceID: root.TraceID(), SpanID: root.Ctx().Span, Name: "invoke", Tenant: "acme", Fn: "fn",
			Start: root.start, Duration: got[1].Duration, Err: true},
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		if gotJSON, err := tr.ExportJSON(); err != nil || !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("ExportJSON pass %d (err %v):\n%s\nwant:\n%s", pass, err, gotJSON, wantJSON)
		}
	}
}
