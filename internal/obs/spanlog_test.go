package obs

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// spanRecBytes is how many fuzz bytes make one record: five int64s and four
// uint32s, little-endian, in spanRec's field order, then a byte that, when
// odd, ends the Append call after the record, as the cap cuts a trace.
const spanRecBytes = 5*8 + 4*4 + 1

func putSpanRec(b []byte, r spanRec, cut bool) []byte {
	for _, v := range []int64{r.trace, r.span, r.parent, r.start, r.dur} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, v := range []uint32{r.name, r.tenant, r.fn, r.attrs} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	if cut {
		return append(b, 1)
	}
	return append(b, 0)
}

// spanRecs reads records and their cut flags from data (a short tail is
// zero-padded) and repeats them until there are at least n, so a short input
// still fills chunks.
func spanRecs(data []byte, n int) ([]spanRec, []bool) {
	var recs []spanRec
	var cuts []bool
	for len(data) > 0 {
		var w [spanRecBytes]byte
		data = data[copy(w[:], data):]
		i64 := func(i int) int64 { return int64(binary.LittleEndian.Uint64(w[8*i:])) }
		u32 := func(i int) uint32 { return binary.LittleEndian.Uint32(w[40+4*i:]) }
		recs = append(recs, spanRec{trace: i64(0), span: i64(1), parent: i64(2), start: i64(3), dur: i64(4),
			name: u32(0), tenant: u32(1), fn: u32(2), attrs: u32(3)})
		cuts = append(cuts, w[spanRecBytes-1]&1 != 0)
	}
	for m := len(recs); m > 0 && len(recs) < n; {
		recs = append(recs, recs[len(recs)%m])
		cuts = append(cuts, cuts[len(cuts)%m])
	}
	return recs, cuts
}

// FuzzSpanLog: however records are appended — in runs that share a trace,
// cut where a record says so — the span log decodes exactly the sequence a
// plain []spanRec holds, its length counts them, and walking it by record,
// skipping every other one, decodes the same records as decoding them all.
func FuzzSpanLog(f *testing.F) {
	seed := func(n uint16, recs ...spanRec) {
		var b []byte
		for _, r := range recs {
			b = putSpanRec(b, r, false)
		}
		f.Add(b, n)
	}
	const lo, hi = math.MinInt64, math.MaxInt64
	// A trace as the tracer appends it: two children, then the root.
	seed(0,
		spanRec{trace: 7, span: 8, parent: 7, start: 1_000_000, dur: 5000, name: 2, attrs: 1},
		spanRec{trace: 7, span: 9, parent: 7, start: 1_006_000, dur: 1000, name: 3},
		spanRec{trace: 7, span: 7, start: 999_000, dur: 9000, name: 1, tenant: 4, fn: 5, attrs: recErr})
	// Extremes, and deltas that wrap both ways.
	seed(0,
		spanRec{trace: hi, span: lo, parent: hi, start: lo, dur: hi, name: math.MaxUint32, tenant: math.MaxUint32, fn: math.MaxUint32, attrs: math.MaxUint32},
		spanRec{trace: lo, span: hi, parent: lo, start: hi, dur: lo},
		spanRec{trace: -1, span: 1, parent: lo, start: -1, dur: -1, attrs: recErr | 3},
		spanRec{})
	// Ids and a wall clock that step back, roots among children.
	seed(0,
		spanRec{trace: 100, span: 100, start: 5e18, dur: 10},
		spanRec{trace: 50, span: 51, parent: 50, start: 4e18, dur: 0},
		spanRec{trace: 50, span: 52, parent: 51, start: 4e18 - 1, dur: -5, attrs: 2},
		spanRec{trace: 50, span: 50, start: 3e18, dur: 1})
	// Long enough to cross the doubling chunks and reach the 16 KiB ones.
	seed(6000,
		spanRec{trace: hi, span: lo, parent: 1, start: lo, dur: hi, name: math.MaxUint32, attrs: math.MaxUint32},
		spanRec{trace: lo, span: hi, parent: -1, start: hi, dur: lo, fn: math.MaxUint32})
	seed(20000,
		spanRec{trace: 1, span: 2, parent: 1, start: 1_700_000_000_000_000_000, dur: 1200, name: 2},
		spanRec{trace: 1, span: 1, start: 1_699_999_999_999_990_000, dur: 15000, name: 1, tenant: 3, fn: 4})

	// Dense invoke-shaped traces (queue, handler, then the root), the last
	// cut by the cap after its handler.
	var b []byte
	for i, trace := range []int64{100, 103, 106} {
		start := int64(1_700_000_000_000_000_000) + int64(i)*2500
		b = putSpanRec(b, spanRec{trace: trace, span: trace + 1, parent: trace, start: start + 90, dur: 120, name: 2}, false)
		b = putSpanRec(b, spanRec{trace: trace, span: trace + 2, parent: trace, start: start + 250, dur: 700, name: 3}, i == 2)
		b = putSpanRec(b, spanRec{trace: trace, span: trace, start: start, dur: 1100, name: 1, tenant: 4, fn: 5}, false)
	}
	f.Add(b, uint16(0))
	// Two traces whose ids interleave, so neither is dense.
	seed(0,
		spanRec{trace: 10, span: 12, parent: 10, start: 1000, dur: 50, name: 2},
		spanRec{trace: 10, span: 14, parent: 12, start: 1010, dur: 20, name: 3},
		spanRec{trace: 10, span: 10, start: 990, dur: 100, name: 1},
		spanRec{trace: 11, span: 13, parent: 11, start: 1005, dur: 50, name: 2},
		spanRec{trace: 11, span: 15, parent: 13, start: 1015, dur: 20, name: 3},
		spanRec{trace: 11, span: 11, start: 995, dur: 100, name: 1})
	// One dense trace of 40 spans, too long for one record in a 1 KiB chunk.
	var long []spanRec
	for i := int64(39); i >= 0; i-- {
		r := spanRec{trace: 500, span: 500 + i, parent: 500 + i/2, start: 1e9 + i*1000, dur: 40 - i, name: uint32(1 + i%3)}
		if i == 0 {
			r.parent = 0
		}
		long = append(long, r)
	}
	seed(0, long...)
	// A shape seen once among repeated ones: labels on a child, attrs, an error.
	seed(0,
		spanRec{trace: 20, span: 21, parent: 20, start: 5000, dur: 10, name: 2},
		spanRec{trace: 20, span: 20, start: 4990, dur: 30, name: 1},
		spanRec{trace: 22, span: 24, parent: 23, start: 6000, dur: 10, name: 3, tenant: 7, fn: 8, attrs: recErr | 1},
		spanRec{trace: 22, span: 23, parent: 22, start: 5995, dur: 20, name: 2, attrs: 2},
		spanRec{trace: 22, span: 22, start: 5990, dur: 40, name: 1},
		spanRec{trace: 25, span: 26, parent: 25, start: 7000, dur: 10, name: 2},
		spanRec{trace: 25, span: 25, start: 6990, dur: 30, name: 1})

	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		want, cuts := spanRecs(data, int(n))
		var l spanLog
		checked := false
		for i := 0; i < len(want); {
			j := i + 1
			for j < len(want) && want[j].trace == want[i].trace && !cuts[j-1] {
				j++
			}
			l.Append(want[i:j])
			i = j
			if (i > len(want)/2 && !checked) || i == len(want) { // read while still appending, and at the end
				checked = true
				checkSpanLog(t, &l, want[:i])
			}
		}
		// A record that did not fit its chunk would have regrown it.
		for i, b := range l.chunks {
			if want := spanChunkFirst << min(i, spanChunkDoublings); cap(b) != want {
				t.Fatalf("chunk %d holds %d bytes, want %d", i, cap(b), want)
			}
		}
	})
}

func checkSpanLog(t *testing.T, l *spanLog, want []spanRec) {
	t.Helper()
	var got []spanRec
	for c := l.cursor(); c.next(); {
		got = append(got, c.rec)
	}
	if l.n != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("after %d appended spans the log holds %d and decodes %d; first difference at %d",
			len(want), l.n, len(got), firstDiff(got, want))
	}
}

func firstDiff(a, b []spanRec) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
