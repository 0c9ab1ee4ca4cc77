package sketch

import "math"

// CountMin estimates event frequencies over a stream (Cormode &
// Muthukrishnan [86]; the sketch of the paper's Figure 3). Estimates never
// undercount; with width w = ⌈e/ε⌉ and depth d = ⌈ln(1/δ)⌉ the overcount is
// at most εN with probability 1-δ.
type CountMin struct {
	width, depth int
	rows         [][]uint64
	n            uint64 // total count added
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

// ErrorBound returns εN for this sketch's dimensions: the w.h.p. maximum
// overcount.
func (c *CountMin) ErrorBound() uint64 {
	return uint64(math.Ceil(math.E / float64(c.width) * float64(c.n)))
}
