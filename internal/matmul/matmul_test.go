package matmul

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/faas"
	"repro/internal/jiffy"
	"repro/internal/simclock"
)

func TestMulKnownValues(t *testing.T) {
	a := Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := Matrix{Rows: 2, Cols: 2, Data: []float64{5, 6, 7, 8}}
	c, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("c = %v, want %v", c.Data, want)
		}
	}
}

func TestMulDimensionCheck(t *testing.T) {
	if _, err := Mul(New(2, 3), New(2, 3)); !errors.Is(err, ErrDims) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Add(New(2, 3), New(3, 2)); !errors.Is(err, ErrDims) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Sub(New(2, 3), New(3, 2)); !errors.Is(err, ErrDims) {
		t.Fatalf("err = %v", err)
	}
}

func TestStrassenMatchesSerial(t *testing.T) {
	for _, n := range []int{2, 8, 32, 64} {
		a, b := Random(n, n, 1), Random(n, n, 2)
		want, _ := Mul(a, b)
		got := strassen(a, b, 4)
		if d := MaxAbsDiff(want, got); d > 1e-9 {
			t.Fatalf("n=%d: strassen differs by %v", n, d)
		}
	}
}

func TestStrassenValidation(t *testing.T) {
	v, p, ns := serverlessEnv(t)
	v.Run(func() {
		if _, err := StrassenServerless(p, ns, New(3, 3), New(3, 3), 1, ServerlessConfig{}); !errors.Is(err, ErrNotPow2) {
			t.Errorf("err = %v", err)
		}
		if _, err := StrassenServerless(p, ns, New(4, 2), New(2, 4), 1, ServerlessConfig{}); !errors.Is(err, ErrNotPow2) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestStrassenOpsSavings(t *testing.T) {
	// n=256, cutoff 32: 3 levels of recursion → 7³·32³ vs 8³·32³.
	strassenOps := StrassenOps(256, 32)
	naiveOps := int64(256) * 256 * 256
	if strassenOps >= naiveOps {
		t.Fatalf("strassen ops %d not fewer than naive %d", strassenOps, naiveOps)
	}
	want := int64(7*7*7) * 32 * 32 * 32
	if strassenOps != want {
		t.Fatalf("ops = %d, want %d", strassenOps, want)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(rows, cols uint8) bool {
		r, c := int(rows)%8+1, int(cols)%8+1
		m := Random(r, c, int64(rows)*31+int64(cols))
		got, err := decode(encode(m))
		if err != nil {
			return false
		}
		return MaxAbsDiff(m, got) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
	if _, err := decode([]byte{1, 2}); err == nil {
		t.Fatal("short decode should fail")
	}
	if _, err := decode(make([]byte, 9)); err == nil {
		t.Fatal("size-mismatch decode should fail")
	}
}

func serverlessEnv(t *testing.T) (*simclock.Virtual, *faas.Platform, *jiffy.Namespace) {
	t.Helper()
	v := simclock.NewVirtual()
	t.Cleanup(v.Close)
	p := faas.New(v, nil)
	ctrl := jiffy.NewController(v, nil, jiffy.Config{BlockSize: 1 << 20, Latency: jiffy.NoLatency})
	ctrl.AddNode("n0", 256)
	ns, err := ctrl.CreateNamespace("/mm", jiffy.NamespaceOptions{Lease: -1, InitialBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	return v, p, ns
}

func TestMulBlockedMatchesSerial(t *testing.T) {
	v, p, ns := serverlessEnv(t)
	a, b := Random(50, 70, 3), Random(70, 30, 4)
	want, _ := Mul(a, b)
	var got Matrix
	v.Run(func() {
		var err error
		got, err = MulBlocked(p, ns, a, b, ServerlessConfig{BlockSize: 16})
		if err != nil {
			t.Error(err)
		}
	})
	if d := MaxAbsDiff(want, got); d > 1e-9 {
		t.Fatalf("blocked result differs by %v", d)
	}
}

func TestMulBlockedDimensionCheck(t *testing.T) {
	v, p, ns := serverlessEnv(t)
	v.Run(func() {
		if _, err := MulBlocked(p, ns, New(2, 3), New(2, 3), ServerlessConfig{}); !errors.Is(err, ErrDims) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestStrassenServerlessMatchesSerial(t *testing.T) {
	v, p, ns := serverlessEnv(t)
	a, b := Random(64, 64, 5), Random(64, 64, 6)
	want, _ := Mul(a, b)
	var got Matrix
	v.Run(func() {
		var err error
		got, err = StrassenServerless(p, ns, a, b, 8, ServerlessConfig{})
		if err != nil {
			t.Error(err)
		}
	})
	if d := MaxAbsDiff(want, got); d > 1e-9 {
		t.Fatalf("serverless strassen differs by %v", d)
	}
}

func TestStrassenServerlessParallelism(t *testing.T) {
	// With WorkPerOp set, the 7 products must overlap: wall time well under
	// 7× a single product's modelled compute.
	v, p, ns := serverlessEnv(t)
	a, b := Random(32, 32, 7), Random(32, 32, 8)
	perOp := 10 * time.Microsecond
	oneProduct := time.Duration(StrassenOps(16, 8)) * perOp
	end := v.Run(func() {
		if _, err := StrassenServerless(p, ns, a, b, 8, ServerlessConfig{WorkPerOp: perOp}); err != nil {
			t.Error(err)
		}
	})
	if el := end.Sub(simclock.Epoch); el > 3*oneProduct {
		t.Fatalf("7 products serialized: %v > 3×%v", el, oneProduct)
	}
}
