// Package seglog is the one structure behind the platform's rule that an
// element appended to a log is written once and never moved: a ledger's
// entry table, which its bookies share, and the tracer's attr side log are
// each a Log.
//
// A plain slice grown by append re-copies its whole history at every growth
// step — on the hot path, under the owner's lock, for elements the
// immutability contract (DESIGN.md §10) says never change. A Log instead
// allocates segments and leaves them where they are: At(i) stays valid for
// the life of the Log however many appends follow. A log whose length is
// known in advance reserves it as one first segment (Reserve), so filling it
// costs one allocation instead of a run of doubling segments.
package seglog

import "math/bits"

// Segment sizes are measured constants, not knobs (DESIGN.md §10). Segments
// double from firstSize up to segSize elements and stay at segSize from then
// on, so a log of one element costs firstSize slots rather than segSize, and
// a long log allocates once per segSize appends.
const (
	firstBits = 4
	firstSize = 1 << firstBits
	segBits   = 11
	segSize   = 1 << segBits
	// doubling is how many segments come before the first of segSize.
	doubling = segBits - firstBits
	// tableCap pre-sizes the segment table for the first 20 464 elements
	// (the doubling segments and nine of segSize), so a typical log never
	// regrows it.
	tableCap = 16
)

// Log is an append-only sequence of T addressed by index. The zero value is
// an empty log. It is not safe for concurrent use; callers hold their own
// lock, as they did around the slice it replaces.
type Log[T any] struct {
	head []T // the Reserve'd first segment; indices past it go to segs
	segs [][]T
	n    int
}

// locate maps an index to its segment and the offset within it. Shifting
// the index by firstSize makes the doubling segments the power-of-two
// ranges [16,32), [32,64) … [2048,4096); everything above is fixed-size.
func locate(i int) (seg, off int) {
	j := uint(i) + firstSize
	if j < 2*segSize {
		b := bits.Len(j) - 1
		return b - firstBits, int(j &^ (1 << b))
	}
	return int(j>>segBits) + doubling - 1, int(j & (segSize - 1))
}

// Len returns the number of elements appended.
func (l *Log[T]) Len() int { return l.n }

// Reserve marks an empty log as long: its first segment is presized to n
// elements, rounded up to a multiple of firstSize and capped at segSize, and
// every later one is segSize — the doubling segments are skipped. The cap
// bounds what a reserve can leave unused to one segment's slots. It does
// nothing to a log that has elements or a reserve already.
func (l *Log[T]) Reserve(n int) {
	if l.n == 0 && l.head == nil && n > 0 {
		l.head = make([]T, min((n+firstSize-1)&^(firstSize-1), segSize))
	}
}

// place maps an index to its segment in segs and the offset within it, for
// an index past the head.
func (l *Log[T]) place(i int) (seg, off int) {
	if l.head == nil {
		return locate(i)
	}
	j := i - len(l.head)
	return j >> segBits, j & (segSize - 1)
}

// Append adds v at index Len().
func (l *Log[T]) Append(v T) {
	if l.n < len(l.head) {
		l.head[l.n] = v
		l.n++
		return
	}
	seg, off := l.place(l.n)
	if seg == len(l.segs) {
		if l.segs == nil {
			l.segs = make([][]T, 0, tableCap)
		}
		size := segSize
		if l.head == nil && seg < doubling {
			size = firstSize << seg
		}
		// Growing the table moves segment headers, never elements.
		l.segs = append(l.segs, make([]T, size))
	}
	l.segs[seg][off] = v
	l.n++
}

// At returns the address of element i, which no later Append invalidates.
// It panics if i is outside [0, Len()).
func (l *Log[T]) At(i int) *T {
	if uint(i) >= uint(l.n) {
		panic("seglog: index out of range")
	}
	if i < len(l.head) {
		return &l.head[i]
	}
	seg, off := l.place(i)
	return &l.segs[seg][off]
}
