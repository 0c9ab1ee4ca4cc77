package obs

// Unit coverage for labeled vec cardinality and overflow folding, tail-
// sampler determinism, SLO burn-rate math on the virtual clock, histogram
// exemplars, and the Prometheus exposition golden file.

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/simclock"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestCounterVecCardinalityCap(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	r := New(v)
	cv := r.CounterVec("api.requests", "tenant")
	for i := 0; i < DefaultMaxSeries+7; i++ {
		cv.With(fmt.Sprintf("t%03d", i)).Inc()
	}
	// Interned series keep their identity; the overflow series absorbs the
	// other seven.
	cv.With("t000").Inc()
	snap := r.Snapshot()
	var seen []string
	var otherVal, t0Val int64
	for _, c := range snap.Counters {
		if c.Name != "api.requests" {
			continue
		}
		val := c.Labels[0].Value
		seen = append(seen, val)
		switch val {
		case OverflowLabel:
			otherVal = c.Value
		case "t000":
			t0Val = c.Value
		}
	}
	if len(seen) != DefaultMaxSeries+1 { // t000 … t511 + __other__
		t.Fatalf("got %d series, want %d interned + overflow", len(seen), DefaultMaxSeries)
	}
	if !sort.StringsAreSorted(seen) {
		t.Fatalf("series must export in sorted order, got %v", seen)
	}
	if otherVal != 7 {
		t.Fatalf("__other__ = %d, want 7", otherVal)
	}
	if t0Val != 2 {
		t.Fatalf("t000 = %d, want 2", t0Val)
	}
	// Wrong arity folds into overflow instead of panicking.
	cv.With("a", "b").Inc()
	if got := cv.With("nope", "extra"); got != cv.With("also", "wrong", "arity") {
		t.Fatal("wrong-arity calls must share the overflow counter")
	}
}

func TestVecConcurrentAccess(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	r := New(v)
	// Every goroutine resolves every kind of instrument by the same names at
	// once, so each get-or-create races its twins.
	type handles struct {
		counter        *Counter
		gauge          *Gauge
		hist, valHist  *Histogram
		cv             *CounterVec
		hv             *HistogramVec
		cvSeries       *Counter
		hvSeries       *Histogram
		tenant         *TenantSLO
		cvOver, cvArgs *Counter
		hvOver         *Histogram
	}
	const combos = DefaultMaxSeries + 16 // each goroutine fills the cap on its own
	var got [8]handles
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			cv := r.CounterVec("stress.counter", "tenant", "fn")
			hv := r.HistogramVec("stress.latency", "tenant")
			got[g] = handles{
				counter: r.Counter("stress"), gauge: r.Gauge("stress"),
				hist: r.Histogram("stress.hist"), valHist: r.ValueHistogram("stress.value"),
				cv: cv, hv: hv, cvSeries: cv.With("shared", "fn"), hvSeries: hv.With("shared"),
				tenant: r.SLO().Tenant("stress"),
			}
			for i := 0; i < combos; i++ {
				cv.With(fmt.Sprintf("tenant-%d", (g+i)%combos), "fn").Inc()
				hv.With(fmt.Sprintf("tenant-%d", i%combos)).Observe(time.Duration(i) * time.Microsecond)
			}
			// This goroutine alone has tried more combinations than the cap,
			// so it is full: a new combination, like a wrong arity, folds
			// into the one overflow series.
			got[g].cvOver = cv.With(fmt.Sprintf("late-%d", g), "fn")
			got[g].cvArgs = cv.With("wrong-arity")
			got[g].hvOver = hv.With(fmt.Sprintf("late-%d", g))
		}()
	}
	close(start)
	wg.Wait()
	h := got[0]
	if h.counter == nil || h.gauge == nil || h.hist == nil || h.valHist == nil || h.hist == h.valHist ||
		h.cvSeries == nil || h.hvSeries == nil || h.tenant == nil || h.cvOver == nil || h.hvOver == nil {
		t.Fatalf("resolved a nil or aliased instrument: %+v", h)
	}
	if h.cvOver != h.cvArgs {
		t.Fatal("a wrong arity and a combination past the cap must share the overflow counter")
	}
	for g := range got {
		if got[g] != h {
			t.Fatalf("goroutine %d resolved %+v, goroutine 0 %+v: one instance per name and kind", g, got[g], h)
		}
	}
	var total int64
	series, over := map[string]int{}, map[string]int{}
	snap := r.Snapshot()
	for _, c := range snap.Counters {
		if c.Name == "stress.counter" {
			total += c.Value
		}
		series[c.Name]++
		if len(c.Labels) > 0 && c.Labels[0].Value == OverflowLabel {
			over[c.Name]++
		}
	}
	for _, hs := range snap.Histograms {
		series[hs.Name]++
		if len(hs.Labels) > 0 && hs.Labels[0].Value == OverflowLabel {
			over[hs.Name]++
		}
	}
	if total != 8*combos {
		t.Fatalf("counted %d increments across series, want %d", total, 8*combos)
	}
	for _, name := range []string{"stress.counter", "stress.latency"} {
		if series[name] != DefaultMaxSeries+1 || over[name] != 1 {
			t.Fatalf("%s exports %d series, %d of them overflow; want the cap of %d plus one shared overflow", name, series[name], over[name], DefaultMaxSeries)
		}
	}
}

func TestTailSamplerDeterministic(t *testing.T) {
	run := func() ([]string, TracerStats) {
		v := simclock.NewVirtual()
		defer v.Close()
		r := New(v)
		tr := r.Tracer()
		tr.SetSampler(SamplerConfig{Seed: 42, KeepFraction: 0.4, SlowThreshold: 50 * time.Millisecond})
		v.Run(func() {
			for i := 0; i < 100; i++ {
				root := tr.Start(TraceCtx{}, fmt.Sprintf("req-%d", i))
				v.Sleep(time.Millisecond)
				root.End()
			}
			// One failed and one slow trace: always kept, whatever the dice say.
			failed := tr.Start(TraceCtx{}, "req-failed")
			failed.EndErr(true)
			slow := tr.Start(TraceCtx{}, "req-slow")
			v.Sleep(time.Second)
			slow.End()
		})
		var kept []string
		for _, s := range tr.Traces() {
			kept = append(kept, s.Name)
		}
		return kept, tr.Stats()
	}
	kept1, st1 := run()
	kept2, st2 := run()
	if strings.Join(kept1, ",") != strings.Join(kept2, ",") {
		t.Fatalf("kept sets differ across identical runs:\n%v\n%v", kept1, kept2)
	}
	if st1.KeptTraces != st2.KeptTraces || st1.DiscardedTraces != st2.DiscardedTraces {
		t.Fatalf("sampler stats differ: %+v vs %+v", st1, st2)
	}
	if st1.DiscardedTraces == 0 || st1.KeptTraces == int64(len(kept1)) && st1.DiscardedTraces == 0 {
		t.Fatalf("KeepFraction 0.4 discarded nothing: %+v", st1)
	}
	has := func(name string) bool {
		for _, k := range kept1 {
			if k == name {
				return true
			}
		}
		return false
	}
	if !has("req-failed") {
		t.Fatal("failed trace was sampled out; errors must always be kept")
	}
	if !has("req-slow") {
		t.Fatal("slow trace was sampled out; tail latencies must always be kept")
	}
}

func TestSLOBurnRates(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	r := New(v)
	eng := r.SLO()
	s := eng.Tenant("acme") // DefaultSLOConfig: 99.9% available, 99% within 500 ms
	v.Run(func() {
		// 2% error rate against a 0.1% budget → burn 20 in every window →
		// page (fast pair ≥ 14.4) and ticket (slow pair ≥ 3.0).
		for i := 0; i < 1000; i++ {
			s.Record(v.Now(), 10*time.Millisecond, i%50 == 0)
		}
	})
	snaps := eng.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("got %d tenants, want 1", len(snaps))
	}
	snap := snaps[0]
	if len(snap.Windows) != len(BurnWindows) {
		t.Fatalf("got %d windows, want %d", len(snap.Windows), len(BurnWindows))
	}
	for _, w := range snap.Windows {
		if w.Total != 1000 || w.Errors != 20 {
			t.Fatalf("window %v: total=%d errors=%d, want 1000/20", w.Window, w.Total, w.Errors)
		}
		if w.ErrorBurn < 19.9 || w.ErrorBurn > 20.1 {
			t.Fatalf("window %v: error burn %.2f, want ~20", w.Window, w.ErrorBurn)
		}
		if w.LatencyBurn != 0 {
			t.Fatalf("window %v: latency burn %.2f, want 0 (all requests fast)", w.Window, w.LatencyBurn)
		}
	}
	if !snap.ErrorPage || !snap.ErrorTicket {
		t.Fatalf("burn 20 must page and ticket: %+v", snap)
	}
	if snap.LatencyPage || snap.LatencyTicket {
		t.Fatalf("latency alerts must stay clear: %+v", snap)
	}

	// 6h+ later every bucket has aged out of all windows.
	v.Run(func() { v.Sleep(sloMaxWindow + time.Minute) })
	for _, w := range eng.Snapshot()[0].Windows {
		if w.Total != 0 {
			t.Fatalf("window %v still holds %d requests after ring aged out", w.Window, w.Total)
		}
	}

	// Slow-but-successful traffic trips the latency objective only.
	v.Run(func() {
		for i := 0; i < 1000; i++ {
			s.Record(v.Now(), 600*time.Millisecond, false) // > 500ms target, 1% budget → burn 100
		}
	})
	snap = eng.Snapshot()[0]
	if !snap.LatencyPage || !snap.LatencyTicket {
		t.Fatalf("all-slow traffic must trip latency alerts: %+v", snap)
	}
	if snap.ErrorPage || snap.ErrorTicket {
		t.Fatalf("error alerts must stay clear on successful traffic: %+v", snap)
	}
}

// TestSLOCellSaturates: a cell is four uint32s, and a count that reaches the
// top stays there rather than wrapping to a quiet tenant.
func TestSLOCellSaturates(t *testing.T) {
	if got := unsafe.Sizeof(sloCell{}); got != 16 {
		t.Fatalf("sloCell is %d bytes, want 16", got)
	}
	v := simclock.NewVirtual()
	defer v.Close()
	s := New(v).SLO().Tenant("acme")
	s.Record(v.Now(), time.Millisecond, true)
	ep := s.epoch()
	c := &s.buckets[ep%uint32(len(s.buckets))]
	if *c != (sloCell{epoch: ep, total: 1, errs: 1}) {
		t.Fatalf("cell after one failed request = %+v", *c)
	}
	c.total, c.errs = math.MaxUint32-1, math.MaxUint32-1
	for i := 0; i < 3; i++ {
		s.Record(v.Now(), time.Millisecond, true)
	}
	if c.total != math.MaxUint32 || c.errs != math.MaxUint32 || c.slow != 0 {
		t.Fatalf("cell after saturating = %+v, want total and errs pinned at %d", *c, uint32(math.MaxUint32))
	}
	if w := s.snapshot().Windows[0]; w.Total != math.MaxUint32 || w.Errors != math.MaxUint32 {
		t.Fatalf("5m window reads total=%d errors=%d, want %d", w.Total, w.Errors, uint32(math.MaxUint32))
	}
}

// sloTwin drives a ring that grows by use and one born at its full
// sloRingLen cells side by side on one virtual clock.
type sloTwin struct {
	t            *testing.T
	name         string
	v            *simclock.Virtual
	grown, fixed *TenantSLO
	diverged     bool // reported once: the walk runs on a clock goroutine, where Fatal may not be called
}

func newSLOTwin(t *testing.T, name string) *sloTwin {
	v := simclock.NewVirtual()
	return &sloTwin{t: t, name: name, v: v,
		grown: &TenantSLO{name: "t", clock: v},
		fixed: &TenantSLO{name: "t", clock: v, buckets: make([]sloCell, sloRingLen)},
	}
}

func (w *sloTwin) record(d time.Duration, failed bool) {
	w.grown.Record(w.v.Now(), d, failed)
	w.fixed.Record(w.v.Now(), d, failed)
}

// sleep moves the clock on by whole epochs; both rings must read the same
// at the epoch it leaves and at the one it reaches.
func (w *sloTwin) sleep(epochs int) {
	w.check()
	w.v.Sleep(time.Duration(epochs) * sloBucket)
	w.check()
}

func (w *sloTwin) check() {
	if w.diverged {
		return
	}
	if g, f := w.grown.snapshot(), w.fixed.snapshot(); !reflect.DeepEqual(g, f) {
		w.diverged = true
		w.t.Errorf("%s: ring of %d cells reads\n%+v\nfixed ring reads\n%+v", w.name, len(w.grown.buckets), g, f)
	}
}

// TestSLORingMatchesFixedOracle: through random epoch walks — same-epoch
// bursts, one-epoch steps, gaps of every size up to past the 6 h horizon —
// a ring that grows by use reads exactly what the fixed ring reads.
func TestSLORingMatchesFixedOracle(t *testing.T) {
	gaps := []int{100, 720, 721, 10000}
	for seed := int64(1); seed <= 4; seed++ {
		w := newSLOTwin(t, fmt.Sprintf("seed %d", seed))
		rng := rand.New(rand.NewSource(seed))
		w.v.Run(func() {
			for step := 0; step < 2000; step++ {
				switch k := rng.Intn(10); {
				case k < 4: // a burst in the current epoch
					for i := rng.Intn(20); i >= 0; i-- {
						w.record(time.Duration(rng.Intn(20))*50*time.Millisecond, rng.Intn(4) == 0) // about half over the 500 ms target
					}
				case k < 7:
					w.sleep(1)
				case k < 9:
					w.sleep(1 + rng.Intn(800))
				default:
					w.sleep(gaps[rng.Intn(len(gaps))])
				}
			}
		})
		if n := len(w.grown.buckets); n > sloRingLen {
			t.Fatalf("%s: ring grew to %d cells, cap %d", w.name, n, sloRingLen)
		}
	}

	// The one step that can land two used cells on one slot is 512 → 721
	// cells. Epoch e1 and e2 = e1+721 meet there if nothing recorded since
	// has e1's residue mod 8 (721 ≡ 1, so e2 has not) and e1 sits later in
	// the 512-cell ring than e2; e2 is inside the window and must win.
	w := newSLOTwin(t, "two cells on one slot")
	w.v.Run(func() {
		w.sleep(int(303+512-w.grown.epoch()%512) % 512) // e1 % 512 = 303; e2 % 512 = 0
		e1 := w.grown.epoch()
		w.record(time.Millisecond, true)
		w.sleep(721)
		for ep := e1 + 721; ep < e1+721+600; ep++ {
			if ep%8 != e1%8 {
				w.record(time.Second, false)
			}
			w.sleep(1)
		}
	})
	if n := len(w.grown.buckets); n != sloRingLen {
		t.Fatalf("ring has %d cells, want it grown to %d", n, sloRingLen)
	}

	// A Record can land an epoch late (faas folds outcomes after the fact).
	// One sloFirstRing epochs late shares a slot of the first ring with a
	// newer used cell; it must grow the ring, not evict it.
	w = newSLOTwin(t, "a late Record")
	w.v.Run(func() {
		e := w.grown.epoch()
		w.sleep(sloFirstRing)
		w.record(time.Second, true)
		for _, s := range []*TenantSLO{w.grown, w.fixed} {
			s.mu.Lock()
			bump(&s.cellLocked(e).total)
			s.mu.Unlock()
		}
		w.check()
	})
}

// TestSLORecordOutOfOrder: outcomes recorded late and in any order, as faas
// folds them from its invoke logs, read as the same outcomes recorded as
// they happened. Each lands in its own instant's epoch, and one that a newer
// epoch has pushed past the ring's 6 h reach is dropped rather than let to
// clobber the newer cell.
func TestSLORecordOutOfOrder(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	eng := New(v).SLO()
	inOrder, shuffled := eng.Tenant("a"), eng.Tenant("b")
	type outcome struct {
		at     time.Time
		d      time.Duration
		failed bool
	}
	rng := rand.New(rand.NewSource(5))
	const span = 20 * time.Hour
	outs := make([]outcome, 5000)
	for i := range outs {
		outs[i] = outcome{v.Now().Add(time.Duration(rng.Int63n(int64(span)))), time.Duration(rng.Intn(1000)) * time.Millisecond, rng.Intn(10) == 0}
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].at.Before(outs[j].at) })
	for _, o := range outs {
		inOrder.Record(o.at, o.d, o.failed)
	}
	rng.Shuffle(len(outs), func(i, j int) { outs[i], outs[j] = outs[j], outs[i] })
	for _, o := range outs {
		shuffled.Record(o.at, o.d, o.failed)
	}
	v.Run(func() { v.Sleep(span) })
	snaps := eng.Snapshot()
	if snaps[0].Windows[3].Total == 0 {
		t.Fatal("the 6 h window is empty")
	}
	snaps[1].Tenant = snaps[0].Tenant
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Fatalf("recorded in order:\n%+v\nshuffled:\n%+v", snaps[0], snaps[1])
	}
}

// TestCounterFirstAddRace: 32 goroutines make a counter's first Adds at
// once. One set of shards wins the swap; no Add lands in a set that lost.
func TestCounterFirstAddRace(t *testing.T) {
	const workers, perWorker = 32, 100
	for round := 0; round < 20; round++ {
		c := New(nil).Counter("c")
		if c.shards.Load() != nil || c.Value() != 0 {
			t.Fatal("an untouched counter has shards or a non-zero value")
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < perWorker; i++ {
					c.Add(2)
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := c.Value(); got != 2*workers*perWorker {
			t.Fatalf("round %d: value %d, want %d", round, got, 2*workers*perWorker)
		}
	}
}

// TestExemplarsOnlyWhenTraced: a histogram observed only without trace ids
// never allocates its exemplar block and reports no exemplars; the first
// traced observation installs it.
func TestExemplarsOnlyWhenTraced(t *testing.T) {
	h := New(nil).Histogram("h")
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	h.ObserveTrace(time.Second, 0) // trace id 0 is "untraced"
	if h.block.Load().exemplars.Load() != nil {
		t.Fatal("an untraced histogram allocated its exemplar block")
	}
	if snap := h.Snapshot(); snap.Count != 101 || snap.ExemplarP95 != 0 || snap.ExemplarP99 != 0 {
		t.Fatalf("untraced snapshot = %+v, want 101 observations and no exemplars", snap)
	}
	for i := 0; i < 10; i++ { // the slow tail owns p95 and p99
		h.ObserveTrace(2*time.Second, 42)
	}
	if h.block.Load().exemplars.Load() == nil {
		t.Fatal("a traced observation left no exemplar block")
	}
	if snap := h.Snapshot(); snap.ExemplarP99 != 42 {
		t.Fatalf("ExemplarP99 = %d, want 42", snap.ExemplarP99)
	}
}

// TestHistogramFirstObservationRace: 32 goroutines make the first
// observations of one histogram at once. One block wins the swap; no
// observation lands in a block that lost.
func TestHistogramFirstObservationRace(t *testing.T) {
	const workers, perWorker = 32, 100
	for round := 0; round < 20; round++ {
		h := New(nil).Histogram("h")
		if h.block.Load() != nil || h.Snapshot() != (HistogramSnapshot{}) {
			t.Fatal("an unobserved histogram has a block or a non-zero snapshot")
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 1; g <= workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < perWorker; i++ {
					h.ObserveTrace(time.Duration(g)*time.Millisecond, int64(g))
				}
			}(g)
		}
		close(start)
		wg.Wait()
		snap := h.Snapshot()
		wantSum := time.Duration(workers*(workers+1)/2*perWorker) * time.Millisecond
		if snap.Count != workers*perWorker || snap.Sum != wantSum || snap.Max != workers*time.Millisecond {
			t.Fatalf("round %d: count=%d sum=%v max=%v, want %d/%v/%v", round, snap.Count, snap.Sum, snap.Max,
				workers*perWorker, wantSum, workers*time.Millisecond)
		}
		if snap.ExemplarP99 < 1 || snap.ExemplarP99 > workers {
			t.Fatalf("round %d: p99 exemplar = %d, want a worker's trace id", round, snap.ExemplarP99)
		}
	}
}

func TestHistogramExemplars(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	r := New(v)
	h := r.Histogram("api.latency")
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond)
	}
	// The slow tail (10% of samples) owns the p95/p99 buckets, so its last
	// trace id surfaces as the exemplar.
	for i := 0; i < 10; i++ {
		h.ObserveTrace(2*time.Second, 7777)
	}
	snap := r.Snapshot()
	var found bool
	for _, hs := range snap.Histograms {
		if hs.Name != "api.latency" {
			continue
		}
		found = true
		if hs.ExemplarP99 != 7777 {
			t.Fatalf("ExemplarP99 = %d, want 7777", hs.ExemplarP99)
		}
	}
	if !found {
		t.Fatal("api.latency missing from snapshot")
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "p99_trace=7777") {
		t.Fatalf("text dump missing exemplar link:\n%s", buf.String())
	}
}

// TestPrometheusGolden pins the exposition format byte-for-byte: header
// dedup per family, labeled series in sorted order, escaped label values and
// help strings, summaries with quantile/_sum/_count. Regenerate with
// `go test ./internal/obs -run TestPrometheusGolden -update` after an
// intentional format change.
func TestPrometheusGolden(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	r := New(v)

	r.SetHelp("api.requests", "Requests per tenant.\nSecond line with a \\ backslash.")
	cv := r.CounterVec("api.requests", "tenant", "function")
	cv.With("acme", "resize").Add(3)
	cv.With(`quo"ted`, "fn\\path").Inc()
	cv.With("multi\nline", "f").Inc()

	r.SetHelp("build.info", "Static build marker.")
	r.Counter("build.info").Inc()
	r.Gauge("pool.size").Set(4)

	r.SetHelp("api.latency", "Request latency.")
	hv := r.HistogramVec("api.latency", "tenant")
	for i := 0; i < 100; i++ {
		hv.With("acme").Observe(5 * time.Millisecond)
	}
	hv.With("acme").Observe(400 * time.Millisecond)
	r.ValueHistogram("batch.size").ObserveValue(8)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prom_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("prometheus exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// Spot-check the load-bearing escapes so a stale golden can't hide them.
	out := buf.String()
	for _, needle := range []string{
		`tenant="quo\"ted"`,
		`function="fn\\path"`,
		`tenant="multi\nline"`,
		`Second line with a \\ backslash.`,
	} {
		if !strings.Contains(out, needle) {
			t.Fatalf("exposition missing escape %q:\n%s", needle, out)
		}
	}
}
