package obs

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// spanRecBytes is how many fuzz bytes make one record: five int64s and four
// uint32s, little-endian, in spanRec's field order.
const spanRecBytes = 5*8 + 4*4

func putSpanRec(b []byte, r spanRec) []byte {
	for _, v := range []int64{r.trace, r.span, r.parent, r.start, r.dur} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, v := range []uint32{r.name, r.tenant, r.fn, r.attrs} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// spanRecs reads records from data (a short tail is zero-padded) and repeats
// them until there are at least n, so a short input still fills chunks.
func spanRecs(data []byte, n int) []spanRec {
	var recs []spanRec
	for len(data) > 0 {
		var w [spanRecBytes]byte
		data = data[copy(w[:], data):]
		i64 := func(i int) int64 { return int64(binary.LittleEndian.Uint64(w[8*i:])) }
		u32 := func(i int) uint32 { return binary.LittleEndian.Uint32(w[40+4*i:]) }
		recs = append(recs, spanRec{trace: i64(0), span: i64(1), parent: i64(2), start: i64(3), dur: i64(4),
			name: u32(0), tenant: u32(1), fn: u32(2), attrs: u32(3)})
	}
	for m := len(recs); m > 0 && len(recs) < n; {
		recs = append(recs, recs[len(recs)%m])
	}
	return recs
}

// FuzzSpanLog: whatever records are appended, the span log decodes exactly
// the sequence a plain []spanRec holds, and its length counts them.
func FuzzSpanLog(f *testing.F) {
	seed := func(n uint16, recs ...spanRec) {
		var b []byte
		for _, r := range recs {
			b = putSpanRec(b, r)
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
	// Long enough to cross the doubling chunks and reach the 64 KiB ones.
	seed(6000,
		spanRec{trace: hi, span: lo, parent: 1, start: lo, dur: hi, name: math.MaxUint32, attrs: math.MaxUint32},
		spanRec{trace: lo, span: hi, parent: -1, start: hi, dur: lo, fn: math.MaxUint32})
	seed(20000,
		spanRec{trace: 1, span: 2, parent: 1, start: 1_700_000_000_000_000_000, dur: 1200, name: 2},
		spanRec{trace: 1, span: 1, start: 1_699_999_999_999_990_000, dur: 15000, name: 1, tenant: 3, fn: 4})

	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		want := spanRecs(data, int(n))
		var l spanLog
		var got []spanRec
		for i, r := range want {
			l.Append(r)
			if i == len(want)/2 || i == len(want)-1 { // read while still appending, and at the end
				got = got[:0]
				for c := l.cursor(); c.next(); {
					got = append(got, c.rec)
				}
				if l.n != i+1 || !reflect.DeepEqual(got, want[:i+1]) {
					t.Fatalf("after %d appends the log holds %d records and decodes %d; first difference at %d",
						i+1, l.n, len(got), firstDiff(got, want[:i+1]))
				}
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

func firstDiff(a, b []spanRec) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
