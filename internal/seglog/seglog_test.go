package seglog

import (
	"math/rand"
	"testing"
)

// TestLocateIsDenseAndInBounds walks the index space across every segment
// boundary: consecutive indices land on consecutive slots, each segment is
// entered at offset 0 and left at its last slot, and no slot is used twice.
func TestLocateIsDenseAndInBounds(t *testing.T) {
	size := func(seg int) int {
		if seg < doubling {
			return firstSize << seg
		}
		return segSize
	}
	wantSeg, wantOff := 0, 0
	for i := 0; i < 5*segSize; i++ {
		seg, off := locate(i)
		if seg != wantSeg || off != wantOff {
			t.Fatalf("locate(%d) = (%d,%d), want (%d,%d)", i, seg, off, wantSeg, wantOff)
		}
		if wantOff++; wantOff == size(wantSeg) {
			wantSeg, wantOff = wantSeg+1, 0
		}
	}
}

// TestLogMatchesSliceOracle drives a Log and a plain slice with the same
// random appends — nil holes included, as the striped bookie index leaves
// them — and after every burst checks Len, At on every index, and that every
// address At ever returned still holds its element: nothing moved. Even seeds
// Reserve a random first segment, so appends cross from it into the doubling
// segments too.
func TestLogMatchesSliceOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l Log[[]byte]
		if seed%2 == 0 {
			l.Reserve(1 + rng.Intn(2*segSize))
		}
		var oracle [][]byte
		var addrs []*[]byte
		for len(oracle) < 3*segSize {
			for burst := 1 + rng.Intn(700); burst > 0; burst-- {
				var v []byte
				if rng.Intn(3) > 0 {
					v = []byte{byte(len(oracle)), byte(len(oracle) >> 8), byte(seed)}
				}
				l.Append(v)
				oracle = append(oracle, v)
				addrs = append(addrs, l.At(len(oracle)-1))
			}
			if l.Len() != len(oracle) {
				t.Fatalf("seed %d: Len = %d, want %d", seed, l.Len(), len(oracle))
			}
			for i, want := range oracle {
				p := l.At(i)
				if p != addrs[i] {
					t.Fatalf("seed %d: element %d moved after %d appends", seed, i, len(oracle))
				}
				if (*p == nil) != (want == nil) || string(*p) != string(want) {
					t.Fatalf("seed %d: At(%d) = %v, want %v", seed, i, *p, want)
				}
			}
		}
		// Writing through At is how a hole is filled later.
		for i, v := range oracle {
			if v == nil {
				*l.At(i) = []byte{1}
			}
		}
		for i, v := range oracle {
			if got := *l.At(i); v == nil && string(got) != "\x01" || v != nil && string(got) != string(v) {
				t.Fatalf("seed %d: filling holes disturbed element %d", seed, i)
			}
		}
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	var l Log[int]
	l.Append(7)
	for _, i := range []int{-1, 1, segSize} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) on a 1-element log did not panic", i)
				}
			}()
			l.At(i)
		}()
	}
}

// TestSegmentBudget pins the two costs the segment sizes were chosen for: a
// one-element log holds firstSize slots, and a long log allocates once per
// segSize appends.
func TestSegmentBudget(t *testing.T) {
	var one Log[int]
	one.Append(1)
	if got := len(one.segs[0]); got != firstSize {
		t.Fatalf("a one-element log holds %d slots, want %d", got, firstSize)
	}
	var l Log[int]
	for i := 0; i < 4*segSize; i++ { // past the doubling segments
		l.Append(i)
	}
	const n = 4 * segSize
	got := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			l.Append(i)
		}
	})
	if got > n/segSize+1 {
		t.Fatalf("%d appends allocated %.0f times, want <= %d", n, got, n/segSize+1)
	}
}

// TestReserveSkipsTheDoubling: a log reserved to a segment's length fills
// with one allocation; a reserve is capped at one segment, and a reserved log
// grows a segSize segment (plus the segment table) at a time from there — a
// 4096-element log is three allocations, not the doubling run's ten — and
// Reserve on a log that has elements changes nothing.
func TestReserveSkipsTheDoubling(t *testing.T) {
	fill := func(reserve, n int) float64 {
		return testing.AllocsPerRun(10, func() {
			var l Log[[]byte]
			l.Reserve(reserve)
			for i := 0; i < n; i++ {
				l.Append(nil)
			}
		})
	}
	if got := fill(segSize-10, segSize); got != 1 { // rounded up to segSize
		t.Fatalf("filling a log reserved to its length took %.0f allocations, want 1", got)
	}
	if got := fill(2*segSize, 2*segSize); got != 3 {
		t.Fatalf("filling a log reserved past a segment took %.0f allocations, want 3", got)
	}
	var l Log[int]
	l.Reserve(1)
	for i := 0; i <= firstSize; i++ {
		l.Append(i)
	}
	if len(l.head) != firstSize || len(l.segs) != 1 || len(l.segs[0]) != segSize || *l.At(firstSize) != firstSize {
		t.Fatalf("reserve of 1: head %d slots, %d spill segments", len(l.head), len(l.segs))
	}
	l.Reserve(10 * segSize)
	if len(l.head) != firstSize {
		t.Fatalf("Reserve on a non-empty log resized it to %d", len(l.head))
	}
}
