package reclog

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestRecordLogMatchesSliceOracle drives a Log and a plain slice of (record,
// bytes) pairs with the same seeded pushes and pops. Spans run from 0 B to
// 40 KiB, so some take a chunk of their own, and the log is drained to empty
// now and then. After every operation the oldest and newest held records,
// and every 64th operation all of them, must equal the oracle's, with spans
// clipped to their length; and the arena must hold at most the held spans'
// bytes plus 1/15 of them (the tails of chunks given up for a fresh one) plus
// two chunks (the open one's free tail and the popped head of the oldest). A
// span handed out before its record popped keeps its bytes.
func TestRecordLogMatchesSliceOracle(t *testing.T) {
	type rec struct{ a, b int64 }
	type entry struct {
		r   rec
		b   []byte
		num uint64
	}
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l Log[rec]
		var oracle []entry
		var next uint64
		var kept [][2][]byte // spans handed out and their bytes, checked after their records pop
		size := func() int {
			switch r := rng.Intn(10); {
			case r < 5:
				return rng.Intn(100)
			case r < 8:
				return rng.Intn(2 << 10)
			default:
				return rng.Intn(40<<10 + 1)
			}
		}
		for op := 0; op < 10_000; op++ {
			switch r := rng.Intn(100); {
			case r < 55:
				b := make([]byte, size())
				rng.Read(b)
				e := entry{r: rec{int64(op), rng.Int63()}, b: b, num: next}
				num, span := l.Push(e.r, len(b))
				if num != next || len(span) != len(b) || cap(span) != len(b) {
					t.Fatalf("op %d: push got number %d and a %d B span (cap %d), want %d and %d B", op, num, len(span), cap(span), next, len(b))
				}
				copy(span, b)
				next++
				oracle = append(oracle, e)
				if rng.Intn(50) == 0 {
					kept = append(kept, [2][]byte{l.Bytes(num), b})
				}
			case r < 99:
				if len(oracle) > 0 {
					l.Pop()
					oracle = oracle[1:]
				}
			default:
				for l.Len() > 0 {
					l.Pop()
				}
				oracle = oracle[:0]
				if l.chunks.len() != 0 {
					t.Fatalf("op %d: an emptied log keeps %d chunks", op, l.chunks.len())
				}
			}
			if l.Len() != len(oracle) || l.First()+uint64(l.Len()) != next {
				t.Fatalf("op %d: log holds %d records from %d, oracle %d up to %d", op, l.Len(), l.First(), len(oracle), next)
			}
			held := 0
			for _, e := range oracle {
				held += len(e.b)
				if op%64 != 0 && e.num != l.First() && e.num != next-1 {
					continue // the whole log is compared every 64th op
				}
				got := l.Bytes(e.num)
				if *l.At(e.num) != e.r || !bytes.Equal(got, e.b) || cap(got) != len(got) || (len(e.b) == 0) != (got == nil) {
					t.Fatalf("op %d: record %d = %v with %d B (cap %d), oracle %v with %d B", op, e.num, *l.At(e.num), len(got), cap(got), e.r, len(e.b))
				}
			}
			retained := 0
			for c := l.chunks.frontNum(); c < l.chunks.next(); c++ {
				retained += cap(l.chunks.at(c).buf)
			}
			if limit := held + held/15 + 2*chunkSize; retained > limit {
				t.Fatalf("op %d: arena holds %d B in %d chunks for %d B of records, want <= %d", op, retained, l.chunks.len(), held, limit)
			}
		}
		for i, k := range kept {
			if !bytes.Equal(k[0], k[1]) {
				t.Fatalf("seed %d: span %d, handed out before its record popped, changed", seed, i)
			}
		}
	}
}
