package sketch

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when merging incompatible sketches.
var ErrDimensionMismatch = errors.New("sketch: dimension mismatch")

// CountMin estimates event frequencies over a stream (Cormode &
// Muthukrishnan [86]; the sketch of the paper's Figure 3). Estimates never
// undercount; with width w = ⌈e/ε⌉ and depth d = ⌈ln(1/δ)⌉ the overcount is
// at most εN with probability 1-δ.
type CountMin struct {
	width, depth int
	rows         [][]uint64
	n            uint64 // total count added
}

// NewCountMin creates a sketch with the given error bound ε and failure
// probability δ.
func NewCountMin(epsilon, delta float64) *CountMin {
	w := int(math.Ceil(math.E / epsilon))
	d := int(math.Ceil(math.Log(1 / delta)))
	return NewCountMinWH(w, d)
}

// NewCountMinWH creates a sketch with explicit width and depth (as the
// paper's Figure 3 does with CountMinSketch(20, 20, 128)).
func NewCountMinWH(width, depth int) *CountMin {
	if width < 1 {
		width = 1
	}
	if depth < 1 {
		depth = 1
	}
	rows := make([][]uint64, depth)
	for i := range rows {
		rows[i] = make([]uint64, width)
	}
	return &CountMin{width: width, depth: depth, rows: rows}
}

// Add counts key occurring count times.
func (c *CountMin) Add(key string, count uint64) {
	for i := 0; i < c.depth; i++ {
		c.rows[i][hashAt(key, i)%uint64(c.width)] += count
	}
	c.n += count
}

// AddConservative counts key with the conservative-update heuristic
// (Estan & Varghese): each counter is raised only as far as needed so the
// minimum reaches estimate+count. Estimates stay one-sided (never
// undercount) but overcounts shrink substantially on skewed streams
// (TestConservativeTighterThanStandard).
// Conservative sketches must not be merged (Merge assumes plain addition).
func (c *CountMin) AddConservative(key string, count uint64) {
	target := c.Estimate(key) + count
	for i := 0; i < c.depth; i++ {
		cell := &c.rows[i][hashAt(key, i)%uint64(c.width)]
		if *cell < target {
			*cell = target
		}
	}
	c.n += count
}

// Estimate returns the estimated frequency of key (never an undercount).
func (c *CountMin) Estimate(key string) uint64 {
	est := uint64(math.MaxUint64)
	for i := 0; i < c.depth; i++ {
		if v := c.rows[i][hashAt(key, i)%uint64(c.width)]; v < est {
			est = v
		}
	}
	return est
}

// N returns the total count added.
func (c *CountMin) N() uint64 { return c.n }

// ErrorBound returns εN for this sketch's dimensions: the w.h.p. maximum
// overcount.
func (c *CountMin) ErrorBound() uint64 {
	return uint64(math.Ceil(math.E / float64(c.width) * float64(c.n)))
}

// Merge adds another sketch's counts into this one (same dimensions
// required) — the composability distributed sketching needs.
func (c *CountMin) Merge(o *CountMin) error {
	if c.width != o.width || c.depth != o.depth {
		return fmt.Errorf("%w: %dx%d vs %dx%d", ErrDimensionMismatch, c.width, c.depth, o.width, o.depth)
	}
	for i := range c.rows {
		for j := range c.rows[i] {
			c.rows[i][j] += o.rows[i][j]
		}
	}
	c.n += o.n
	return nil
}
