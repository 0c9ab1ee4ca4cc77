// Package matmul implements the distributed matrix multiplication workload
// of §5.1 ([181]): dense matrices, a serial baseline, a block-parallel
// serverless MATMUL that fans block products out over FaaS functions with
// intermediate results in ephemeral storage, and Strassen's seven-product
// recursion ([170]) with its top-level products executed as serverless
// functions.
package matmul

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Errors returned by the package.
var (
	ErrDims    = errors.New("matmul: dimension mismatch")
	ErrNotPow2 = errors.New("matmul: strassen requires square power-of-two matrices")
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New creates a zero matrix.
func New(rows, cols int) Matrix {
	return Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Random creates a matrix with deterministic pseudo-random entries in [-1,1).
func Random(rows, cols int, seed int64) Matrix {
	m := New(rows, cols)
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
	return m
}

// At returns m[i,j].
func (m Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Mul is the serial O(n³) baseline.
func Mul(a, b Matrix) (Matrix, error) {
	if a.Cols != b.Rows {
		return Matrix{}, fmt.Errorf("%w: %dx%d × %dx%d", ErrDims, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				c.Data[i*c.Cols+j] += aik * b.At(k, j)
			}
		}
	}
	return c, nil
}

// Add returns a+b.
func Add(a, b Matrix) (Matrix, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return Matrix{}, fmt.Errorf("%w: %dx%d + %dx%d", ErrDims, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := New(a.Rows, a.Cols)
	for i := range c.Data {
		c.Data[i] = a.Data[i] + b.Data[i]
	}
	return c, nil
}

// Sub returns a-b.
func Sub(a, b Matrix) (Matrix, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return Matrix{}, fmt.Errorf("%w: %dx%d - %dx%d", ErrDims, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := New(a.Rows, a.Cols)
	for i := range c.Data {
		c.Data[i] = a.Data[i] - b.Data[i]
	}
	return c, nil
}

// MaxAbsDiff returns the max elementwise |a-b| (for approximate equality).
func MaxAbsDiff(a, b Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	var max float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}

// Block extracts the r0..r1 × c0..c1 submatrix (half-open).
func (m Matrix) Block(r0, r1, c0, c1 int) Matrix {
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Data[(i-r0)*out.Cols:(i-r0+1)*out.Cols], m.Data[i*m.Cols+c0:i*m.Cols+c1])
	}
	return out
}

// paste writes src into m at (r0, c0).
func (m *Matrix) paste(src Matrix, r0, c0 int) {
	for i := 0; i < src.Rows; i++ {
		copy(m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+src.Cols], src.Data[i*src.Cols:(i+1)*src.Cols])
	}
}

// quarters splits a square even-dimension matrix into 2×2 blocks.
func (m Matrix) quarters() (a11, a12, a21, a22 Matrix) {
	h := m.Rows / 2
	return m.Block(0, h, 0, h), m.Block(0, h, h, m.Cols), m.Block(h, m.Rows, 0, h), m.Block(h, m.Rows, h, m.Cols)
}

// StrassenOps counts the scalar multiplications Strassen performs for n×n
// with the given cutoff — the 7^k vs 8^k saving the algorithm exists for.
func StrassenOps(n, cutoff int) int64 {
	if n <= cutoff || n%2 != 0 {
		return int64(n) * int64(n) * int64(n)
	}
	return 7*StrassenOps(n/2, cutoff) + 0 // additions are free in this count
}

// strassen multiplies square power-of-two matrices with the seven-product
// recursion, falling back to the serial kernel at or below cutoff.
func strassen(a, b Matrix, cutoff int) Matrix {
	n := a.Rows
	if n <= cutoff {
		c, _ := Mul(a, b)
		return c
	}
	a11, a12, a21, a22 := a.quarters()
	b11, b12, b21, b22 := b.quarters()

	add := func(x, y Matrix) Matrix { z, _ := Add(x, y); return z }
	sub := func(x, y Matrix) Matrix { z, _ := Sub(x, y); return z }

	m1 := strassen(add(a11, a22), add(b11, b22), cutoff)
	m2 := strassen(add(a21, a22), b11, cutoff)
	m3 := strassen(a11, sub(b12, b22), cutoff)
	m4 := strassen(a22, sub(b21, b11), cutoff)
	m5 := strassen(add(a11, a12), b22, cutoff)
	m6 := strassen(sub(a21, a11), add(b11, b12), cutoff)
	m7 := strassen(sub(a12, a22), add(b21, b22), cutoff)

	c11 := add(sub(add(m1, m4), m5), m7)
	c12 := add(m3, m5)
	c21 := add(m2, m4)
	c22 := add(add(sub(m1, m2), m3), m6)

	c := New(n, n)
	h := n / 2
	c.paste(c11, 0, 0)
	c.paste(c12, 0, h)
	c.paste(c21, h, 0)
	c.paste(c22, h, h)
	return c
}
