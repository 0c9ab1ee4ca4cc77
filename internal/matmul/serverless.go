package matmul

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/faas"
	"repro/internal/jiffy"
)

// encode serializes a matrix for ephemeral storage.
func encode(m Matrix) []byte {
	buf := make([]byte, 8+8*len(m.Data))
	binary.BigEndian.PutUint32(buf[0:4], uint32(m.Rows))
	binary.BigEndian.PutUint32(buf[4:8], uint32(m.Cols))
	for i, v := range m.Data {
		binary.BigEndian.PutUint64(buf[8+8*i:], math.Float64bits(v))
	}
	return buf
}

// decode deserializes a matrix.
func decode(b []byte) (Matrix, error) {
	if len(b) < 8 {
		return Matrix{}, fmt.Errorf("matmul: short matrix encoding (%d bytes)", len(b))
	}
	rows := int(binary.BigEndian.Uint32(b[0:4]))
	cols := int(binary.BigEndian.Uint32(b[4:8]))
	if len(b) != 8+8*rows*cols {
		return Matrix{}, fmt.Errorf("matmul: encoding size %d != %dx%d", len(b), rows, cols)
	}
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8+8*i:]))
	}
	return m, nil
}

// ServerlessConfig parameterizes the distributed multiply.
type ServerlessConfig struct {
	// BlockSize is the tile dimension for MulBlocked. Default 64.
	BlockSize int
	// WorkPerOp models compute time per scalar multiply-add on the
	// platform clock (zero = real compute only).
	WorkPerOp time.Duration
}

// tenant owns the worker functions, which run under workerConfig.
const tenant = "matmul"

var workerConfig = faas.Config{ColdStart: time.Millisecond, MaxRetries: -1}

func (c ServerlessConfig) withDefaults() ServerlessConfig {
	if c.BlockSize <= 0 {
		c.BlockSize = 64
	}
	return c
}

// MulBlocked multiplies a×b by fanning tile products out over FaaS
// functions, exchanging tiles through the Jiffy namespace ns (the
// ephemeral-intermediate-state pattern of [181]).
func MulBlocked(p *faas.Platform, ns *jiffy.Namespace, a, b Matrix, cfg ServerlessConfig) (Matrix, error) {
	if a.Cols != b.Rows {
		return Matrix{}, fmt.Errorf("%w: %dx%d × %dx%d", ErrDims, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	cfg = cfg.withDefaults()
	bs := cfg.BlockSize
	fnName := fmt.Sprintf("matmul-tile-%s", ns.Path()[1:])

	// Stage inputs once in ephemeral storage, tile by tile.
	tiles := func(m Matrix, name string) (int, int, error) {
		rT, cT := (m.Rows+bs-1)/bs, (m.Cols+bs-1)/bs
		for i := 0; i < rT; i++ {
			for j := 0; j < cT; j++ {
				blk := m.Block(i*bs, min(m.Rows, (i+1)*bs), j*bs, min(m.Cols, (j+1)*bs))
				if err := ns.Put(fmt.Sprintf("%s/%d/%d", name, i, j), encode(blk)); err != nil {
					return 0, 0, err
				}
			}
		}
		return rT, cT, nil
	}
	aRT, aCT, err := tiles(a, "A")
	if err != nil {
		return Matrix{}, err
	}
	_, bCT, err := tiles(b, "B")
	if err != nil {
		return Matrix{}, err
	}

	worker := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		var in struct{ I, J, K int }
		if err := json.Unmarshal(payload, &in); err != nil {
			return nil, err
		}
		acc := Matrix{}
		for k := 0; k < in.K; k++ {
			ab, err := ns.Get(fmt.Sprintf("A/%d/%d", in.I, k))
			if err != nil {
				return nil, err
			}
			bb, err := ns.Get(fmt.Sprintf("B/%d/%d", k, in.J))
			if err != nil {
				return nil, err
			}
			am, err := decode(ab)
			if err != nil {
				return nil, err
			}
			bm, err := decode(bb)
			if err != nil {
				return nil, err
			}
			prod, err := Mul(am, bm)
			if err != nil {
				return nil, err
			}
			ctx.Work(time.Duration(am.Rows*am.Cols*bm.Cols) * cfg.WorkPerOp)
			if acc.Data == nil {
				acc = prod
			} else if acc, err = Add(acc, prod); err != nil {
				return nil, err
			}
		}
		return nil, ns.Put(fmt.Sprintf("C/%d/%d", in.I, in.J), encode(acc))
	}
	if err := p.Register(fnName, tenant, worker, workerConfig); err != nil {
		return Matrix{}, err
	}
	defer p.UnregisterFor(tenant, fnName)

	var payloads [][]byte
	for i := 0; i < aRT; i++ {
		for j := 0; j < bCT; j++ {
			payload, _ := json.Marshal(struct{ I, J, K int }{i, j, aCT})
			payloads = append(payloads, payload)
		}
	}
	_, errs := faas.Drive(p, tenant, fnName, payloads, make([]time.Duration, len(payloads))).Wait()
	if err := errors.Join(errs...); err != nil {
		return Matrix{}, err
	}

	// Assemble C from ephemeral tiles.
	c := New(a.Rows, b.Cols)
	for i := 0; i < aRT; i++ {
		for j := 0; j < bCT; j++ {
			raw, err := ns.Get(fmt.Sprintf("C/%d/%d", i, j))
			if err != nil {
				return Matrix{}, err
			}
			blk, err := decode(raw)
			if err != nil {
				return Matrix{}, err
			}
			c.paste(blk, i*bs, j*bs)
		}
	}
	return c, nil
}

// StrassenServerless runs Strassen's seven top-level products as concurrent
// FaaS invocations (Werner et al.'s distributed Strassen [181]), with
// operands and products exchanged through ephemeral storage; each worker
// computes its product with the serial seven-product recursion (strassen).
func StrassenServerless(p *faas.Platform, ns *jiffy.Namespace, a, b Matrix, cutoff int, cfg ServerlessConfig) (Matrix, error) {
	if a.Rows != a.Cols || b.Rows != b.Cols || a.Cols != b.Rows || a.Rows&(a.Rows-1) != 0 {
		return Matrix{}, fmt.Errorf("%w: %dx%d × %dx%d", ErrNotPow2, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	cfg = cfg.withDefaults()
	if cutoff < 1 {
		cutoff = 64
	}
	a11, a12, a21, a22 := a.quarters()
	b11, b12, b21, b22 := b.quarters()
	add := func(x, y Matrix) Matrix { z, _ := Add(x, y); return z }
	sub := func(x, y Matrix) Matrix { z, _ := Sub(x, y); return z }

	type prod struct{ l, r Matrix }
	prods := []prod{
		{add(a11, a22), add(b11, b22)}, // M1
		{add(a21, a22), b11},           // M2
		{a11, sub(b12, b22)},           // M3
		{a22, sub(b21, b11)},           // M4
		{add(a11, a12), b22},           // M5
		{sub(a21, a11), add(b11, b12)}, // M6
		{sub(a12, a22), add(b21, b22)}, // M7
	}
	for i, pr := range prods {
		if err := ns.Put(fmt.Sprintf("S/L/%d", i), encode(pr.l)); err != nil {
			return Matrix{}, err
		}
		if err := ns.Put(fmt.Sprintf("S/R/%d", i), encode(pr.r)); err != nil {
			return Matrix{}, err
		}
	}

	fnName := fmt.Sprintf("strassen-%s", ns.Path()[1:])
	worker := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		var in struct{ I int }
		if err := json.Unmarshal(payload, &in); err != nil {
			return nil, err
		}
		lb, err := ns.Get(fmt.Sprintf("S/L/%d", in.I))
		if err != nil {
			return nil, err
		}
		rb, err := ns.Get(fmt.Sprintf("S/R/%d", in.I))
		if err != nil {
			return nil, err
		}
		l, err := decode(lb)
		if err != nil {
			return nil, err
		}
		r, err := decode(rb)
		if err != nil {
			return nil, err
		}
		m := strassen(l, r, cutoff)
		ctx.Work(time.Duration(StrassenOps(l.Rows, cutoff)) * cfg.WorkPerOp)
		return nil, ns.Put(fmt.Sprintf("S/M/%d", in.I), encode(m))
	}
	if err := p.Register(fnName, tenant, worker, workerConfig); err != nil {
		return Matrix{}, err
	}
	defer p.UnregisterFor(tenant, fnName)

	payloads := make([][]byte, 7)
	for i := range payloads {
		payloads[i], _ = json.Marshal(struct{ I int }{i})
	}
	_, errs := faas.Drive(p, tenant, fnName, payloads, make([]time.Duration, len(payloads))).Wait()
	if err := errors.Join(errs...); err != nil {
		return Matrix{}, err
	}

	m := make([]Matrix, 7)
	for i := range m {
		raw, err := ns.Get(fmt.Sprintf("S/M/%d", i))
		if err != nil {
			return Matrix{}, err
		}
		if m[i], err = decode(raw); err != nil {
			return Matrix{}, err
		}
	}
	c11 := add(sub(add(m[0], m[3]), m[4]), m[6])
	c12 := add(m[2], m[4])
	c21 := add(m[1], m[3])
	c22 := add(add(sub(m[0], m[1]), m[2]), m[5])
	n := a.Rows
	c := New(n, n)
	c.paste(c11, 0, 0)
	c.paste(c12, 0, n/2)
	c.paste(c21, n/2, 0)
	c.paste(c22, n/2, n/2)
	return c, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
