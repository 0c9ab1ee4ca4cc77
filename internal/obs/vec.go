package obs

import (
	"strings"
	"sync"
)

// DefaultMaxSeries caps the number of label combinations a vec will track.
// Combination #cap+1 and later fold into a single __other__ series, so a
// misbehaving caller (or a tenant explosion) degrades aggregation quality
// instead of growing memory without bound.
const DefaultMaxSeries = 512

// OverflowLabel is the label value carried by the fold-over series.
const OverflowLabel = "__other__"

// Label is one key=value dimension on a labeled series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// lookup returns m[name], making it with mk on first use: a read lock when
// it exists, the write lock and a second look when it may not. mk runs under
// the write lock and may decline with nil, which lookup returns unstored.
// Every get-or-create in the package goes through here.
func lookup[V any](mu *sync.RWMutex, m map[string]*V, name string, mk func() *V) *V {
	mu.RLock()
	v := m[name]
	mu.RUnlock()
	if v != nil {
		return v
	}
	mu.Lock()
	defer mu.Unlock()
	if v = m[name]; v == nil {
		if v = mk(); v != nil {
			m[name] = v
		}
	}
	return v
}

// family is a labeled instrument family, the one implementation behind
// CounterVec and HistogramVec: one series per combination of label values,
// keyed by the values joined. With is a setup-time operation (it may
// allocate); the instrument it returns is the hot-path handle and stays
// allocation-free.
type family[T any] struct {
	name string
	keys []string

	mu     sync.RWMutex
	series map[string]*series[T]
	other  *series[T] // the __other__ series; nil until the cap or a wrong arity
}

// series is one label combination and its instrument. The overflow series
// has no values.
type series[T any] struct {
	vals []string
	inst T
}

func newFamily[T any](name string, keys []string) *family[T] {
	return &family[T]{name: name, keys: append([]string(nil), keys...), series: map[string]*series[T]{}}
}

// with resolves the instrument for vals, folding into the __other__ series
// past the cardinality cap. A wrong arity never panics on the hot path — it
// folds into overflow too, which shows up in exports as a loud __other__
// series rather than a crash. Nil-safe.
func (f *family[T]) with(vals []string) *T {
	if f == nil {
		return nil
	}
	if len(vals) == len(f.keys) {
		s := lookup(&f.mu, f.series, strings.Join(vals, "\x1f"), func() *series[T] {
			if len(f.series) >= DefaultMaxSeries {
				return nil
			}
			return &series[T]{vals: append([]string(nil), vals...)}
		})
		if s != nil {
			return &s.inst
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.other == nil {
		f.other = &series[T]{}
	}
	return &f.other.inst
}

// each calls fn with every series' labels and instrument, the overflow
// series last. Registry.Snapshot sorts what it collects.
func (f *family[T]) each(fn func([]Label, *T)) {
	f.mu.RLock()
	all := make([]*series[T], 0, len(f.series)+1)
	for _, s := range f.series {
		all = append(all, s)
	}
	if f.other != nil {
		all = append(all, f.other)
	}
	f.mu.RUnlock()
	for _, s := range all {
		labels := make([]Label, len(f.keys))
		for i, k := range f.keys {
			labels[i] = Label{Key: k, Value: OverflowLabel}
			if s.vals != nil {
				labels[i].Value = s.vals[i]
			}
		}
		fn(labels, &s.inst)
	}
}

// CounterVec is a family of counters keyed by label values (e.g. tenant,
// function). Resolve a handle once with With at setup time; the handle is a
// plain *Counter, so the increment path is identical to unlabeled counters.
type CounterVec family[Counter]

// With resolves the counter for the given label values, folding into the
// __other__ overflow series past the cardinality cap. Nil-safe.
func (v *CounterVec) With(vals ...string) *Counter { return (*family[Counter])(v).with(vals) }

// HistogramVec is a family of latency histograms keyed by label values.
type HistogramVec family[Histogram]

// With resolves the histogram for the given label values, folding into the
// __other__ overflow series past the cardinality cap. Nil-safe.
func (v *HistogramVec) With(vals ...string) *Histogram { return (*family[Histogram])(v).with(vals) }
