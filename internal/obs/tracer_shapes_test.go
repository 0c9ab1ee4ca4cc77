package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
)

// shapeTemplate is one kind of trace: a tree started in index order (span
// i's parent is an earlier span) and ended in a fixed order, with fixed
// names, labels and attrs.
type shapeTemplate struct {
	parents []int
	names   []string
	order   []int // end order, a permutation of the span indexes
	labels  []int // per span: 0 none, else EndLabeled with tenant-/fn-<label>
	attrs   []bool
}

func newShapeTemplate(rng *rand.Rand, root string) shapeTemplate {
	n := 1 + rng.Intn(40)
	tp := shapeTemplate{parents: make([]int, n), names: make([]string, n), order: rng.Perm(n),
		labels: make([]int, n), attrs: make([]bool, n)}
	tp.names[0] = root
	for i := 1; i < n; i++ {
		tp.parents[i] = rng.Intn(i)
		tp.names[i] = fmt.Sprintf("step-%d", rng.Intn(3))
	}
	for i := range n {
		if rng.Intn(4) == 0 {
			tp.labels[i] = 1 + rng.Intn(2)
		}
		tp.attrs[i] = tp.labels[i] == 0 && rng.Intn(4) == 0
	}
	return tp
}

// shapeOracle is the plain-slice model of the retention log for traces of
// any shape: the spans of each trace in completion order, traces in the
// order they finalized, which ends are serialized under mu to fix.
type shapeOracle struct {
	v     *simclock.Virtual
	tr    *Tracer
	mu    sync.Mutex
	spans []SpanData
}

// trace runs one trace of template tp, sleeping up to 2 ms between steps so
// that another goroutine's spans take ids in between.
func (o *shapeOracle) trace(rng *rand.Rand, tp shapeTemplate) {
	n := len(tp.parents)
	refs, starts := make([]SpanRef, n), make([]time.Time, n)
	active := 0
	for i := range n {
		var parent TraceCtx
		if i > 0 {
			if !refs[tp.parents[i]].Active() {
				continue // an inert parent's children are inert too
			}
			parent = refs[tp.parents[i]].Ctx()
		}
		starts[i] = o.v.Now()
		if refs[i] = o.tr.Start(parent, tp.names[i]); refs[i].Active() {
			active++
		}
		o.v.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
	}
	var done []SpanData
	for _, i := range tp.order {
		o.v.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		ref, failed := refs[i], rng.Intn(10) == 0
		sd := SpanData{Name: tp.names[i], Err: failed}
		o.mu.Lock()
		switch {
		case tp.labels[i] != 0:
			sd.Tenant, sd.Fn = fmt.Sprintf("tenant-%d", tp.labels[i]), fmt.Sprintf("fn-%d", tp.labels[i])
			ref.EndLabeled(sd.Tenant, sd.Fn, failed)
		case tp.attrs[i]:
			sd.Attrs = []Attr{{Key: "i", Value: fmt.Sprint(i)}, {Key: "n", Value: fmt.Sprint(n)}}
			ref.EndAttrs(failed, sd.Attrs...)
		default:
			ref.EndErr(failed)
		}
		if ref.Active() {
			sd.TraceID, sd.SpanID, sd.Start, sd.Duration = ref.TraceID(), ref.Ctx().Span, starts[i], o.v.Now().Sub(starts[i])
			if i > 0 {
				sd.ParentID = refs[tp.parents[i]].Ctx().Span
			}
			if done = append(done, sd); len(done) == active { // this End finalized the trace
				o.spans = append(o.spans, done...)
			}
		}
		o.mu.Unlock()
	}
}

// run drives the given number of traces from each of that many goroutines at
// once, each goroutine's traces drawn from three templates and fresh ones.
func (o *shapeOracle) run(seed int64, goroutines, traces int) {
	o.v.Run(func() {
		for g := range goroutines {
			rng := rand.New(rand.NewSource(seed + int64(g)))
			root := fmt.Sprintf("root-%d", g) // (root start, name) orders Traces without ties
			tps := []shapeTemplate{newShapeTemplate(rng, root), newShapeTemplate(rng, root), newShapeTemplate(rng, root)}
			o.v.Go(func() {
				for range traces {
					tp := tps[rng.Intn(len(tps))]
					if rng.Intn(4) == 0 {
						tp = newShapeTemplate(rng, root)
					}
					o.trace(rng, tp)
					o.v.Sleep(time.Millisecond)
				}
			})
		}
	})
}

// canonicalOf renders want the way CanonicalText documents, for trees of any
// depth: id-free, traces by (root start, text), children by their own text.
func canonicalOf(want []SpanData) string {
	kids := map[int64][]SpanData{}
	traces, rooted := map[int64]bool{}, map[int64]bool{}
	var roots []SpanData
	for _, sd := range want {
		traces[sd.TraceID] = true
		if sd.SpanID == sd.TraceID {
			roots = append(roots, sd)
			rooted[sd.TraceID] = true
		} else {
			kids[sd.ParentID] = append(kids[sd.ParentID], sd)
		}
	}
	var render func(sd SpanData, depth int) string
	render = func(sd SpanData, depth int) string {
		s := fmt.Sprintf("%s%s start=%d dur=%d", strings.Repeat("  ", depth), sd.Name, sd.Start.UnixNano(), sd.Duration.Nanoseconds())
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
		var sub []string
		for _, k := range kids[sd.SpanID] {
			sub = append(sub, render(k, depth+1))
		}
		sort.Strings(sub)
		return s + "\n" + strings.Join(sub, "")
	}
	type rendered struct {
		start int64
		text  string
	}
	var out []rendered
	for _, r := range roots {
		out = append(out, rendered{r.Start.UnixNano(), render(r, 1)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].text < out[j].text
	})
	var b strings.Builder
	fmt.Fprintf(&b, "traces=%d orphan_traces=%d\n", len(out), len(traces)-len(rooted))
	for _, r := range out {
		b.WriteString("trace\n" + r.text)
	}
	return b.String()
}

// checkReads holds every read path of tr to want, the spans it must retain.
func checkReads(t *testing.T, tr *Tracer, want []SpanData, when string) {
	t.Helper()
	if got := tr.Spans(); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s: Spans has %d spans, oracle %d (first difference at %d)", when, len(got), len(want), firstSpanDiff(got, want))
	}
	if st := tr.Stats(); st.Retained != len(want) {
		t.Fatalf("%s: Stats.Retained = %d, oracle %d", when, st.Retained, len(want))
	}

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
	sort.Slice(sums, func(i, j int) bool {
		if !sums[i].Start.Equal(sums[j].Start) {
			return sums[i].Start.Before(sums[j].Start)
		}
		return sums[i].Name < sums[j].Name
	})
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
	if got, text := tr.CanonicalText(), canonicalOf(want); got != text {
		t.Fatalf("%s: CanonicalText differs from the oracle's rendering:\n%s\nwant:\n%s", when, got, text)
	}
}

func firstSpanDiff(a, b []SpanData) int {
	for i := range min(len(a), len(b)) {
		if !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return min(len(a), len(b))
}

// denseTraces counts the traces in spans whose ids are trace + [0, n).
func denseTraces(spans []SpanData) (dense, all int) {
	ids := map[int64][]int64{}
	var order []int64
	for _, sd := range spans {
		if ids[sd.TraceID] == nil {
			order = append(order, sd.TraceID)
		}
		ids[sd.TraceID] = append(ids[sd.TraceID], sd.SpanID)
	}
	for _, id := range order {
		ok := true
		for _, s := range ids[id] {
			ok = ok && s >= id && s < id+int64(len(ids[id]))
		}
		if ok {
			dense++
		}
	}
	return dense, len(order)
}

// TestTracerShapesMatchOracle: traces of any shape — trees of 1–40 spans
// with grandchildren, ended in any order, labels on any span, attrs and
// errors, from two goroutines whose ids interleave — read back through
// Spans, Traces, ExportJSON and CanonicalText exactly as a plain slice holds
// them; so do a trace the cap cuts and the log after SetMaxSpans reopens it.
func TestTracerShapesMatchOracle(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	tr := newTracer(v)
	o := &shapeOracle{v: v, tr: tr}

	o.run(1, 2, 30)
	checkReads(t, tr, o.spans, "two goroutines")
	if dense, all := denseTraces(o.spans); dense == all {
		t.Fatalf("all %d traces of two goroutines have dense ids: nothing interleaved", all)
	}

	// One goroutine: dense ids. The cap lands inside a trace of 40 spans.
	before := len(o.spans)
	o.run(3, 1, 10)
	if dense, all := denseTraces(o.spans[before:]); dense != all {
		t.Fatalf("%d of %d traces of one goroutine have dense ids, want all", dense, all)
	}
	capAt := len(o.spans) + 17
	tr.SetMaxSpans(capAt)
	rng := rand.New(rand.NewSource(4))
	long := newShapeTemplate(rng, "long")
	for len(long.parents) != 40 {
		long = newShapeTemplate(rng, "long")
	}
	v.Run(func() { o.trace(rng, long) })
	o.spans = o.spans[:capAt]
	checkReads(t, tr, o.spans, "at the cap")
	if !tr.full.Load() {
		t.Fatal("the cap landed inside a trace but the tracer is not full")
	}

	// Reopened, the log appends after the cut trace.
	tr.SetMaxSpans(0)
	o.run(5, 2, 10)
	checkReads(t, tr, o.spans, "cap restored")
}
