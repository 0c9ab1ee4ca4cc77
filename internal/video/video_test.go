package video

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/simclock"
)

func env(t *testing.T) (*simclock.Virtual, *faas.Platform) {
	t.Helper()
	v := simclock.NewVirtual()
	t.Cleanup(v.Close)
	return v, faas.New(v, nil)
}

func TestSyntheticShape(t *testing.T) {
	v := Synthetic(100, 10, 1)
	if len(v.Frames) != 100 {
		t.Fatalf("frames = %d", len(v.Frames))
	}
	keys := 0
	for i, f := range v.Frames {
		if f.Complexity < 0.5 || f.Complexity >= 1.5 {
			t.Fatalf("frame %d complexity %v", i, f.Complexity)
		}
		if f.KeyFrame {
			keys++
			if i%10 != 0 {
				t.Fatalf("key frame at %d", i)
			}
		}
	}
	if keys != 10 {
		t.Fatalf("key frames = %d", keys)
	}
	// Determinism.
	v2 := Synthetic(100, 10, 1)
	for i := range v.Frames {
		if v.Frames[i] != v2.Frames[i] {
			t.Fatal("Synthetic nondeterministic")
		}
	}
}

func TestEncodeEmpty(t *testing.T) {
	v, p := env(t)
	v.Run(func() {
		if _, err := EncodeParallel(p, Video{FPS: 30}, DefaultCost(), 1); !errors.Is(err, ErrNoFrames) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestParallelFasterThanSerial(t *testing.T) {
	v, p := env(t)
	clip := Synthetic(240, 24, 2) // 8 seconds of video
	var serial, par Report
	v.Run(func() {
		var err error
		serial, err = EncodeParallel(p, clip, DefaultCost(), 1)
		if err != nil {
			t.Error(err)
			return
		}
		par, err = EncodeParallel(p, clip, DefaultCost(), 8)
		if err != nil {
			t.Error(err)
		}
	})
	if par.Wall >= serial.Wall {
		t.Fatalf("parallel %v not faster than serial %v", par.Wall, serial.Wall)
	}
	// 8 chunks: ideal 8×; with boundary keyframes and stitch, expect ≥4×.
	if speedup := float64(serial.Wall) / float64(par.Wall); speedup < 4 {
		t.Fatalf("speedup %.2f too low (serial %v, parallel %v)", speedup, serial.Wall, par.Wall)
	}
}

func TestParallelCostsMoreBytes(t *testing.T) {
	// Forced boundary key frames make parallel output larger — the
	// ExCamera trade-off.
	v, p := env(t)
	clip := Synthetic(120, 30, 3)
	var serial, par Report
	v.Run(func() {
		serial, _ = EncodeParallel(p, clip, DefaultCost(), 1)
		par, _ = EncodeParallel(p, clip, DefaultCost(), 6)
	})
	if par.OutputBytes <= serial.OutputBytes {
		t.Fatalf("parallel bytes %d not larger than serial %d", par.OutputBytes, serial.OutputBytes)
	}
}

func TestDiminishingReturns(t *testing.T) {
	// Latency improves with chunk count but flattens: going 4→8 chunks
	// must help less than 1→4 (stitch overhead grows with chunks).
	v, p := env(t)
	clip := Synthetic(240, 24, 4)
	walls := map[int]time.Duration{}
	v.Run(func() {
		for _, chunks := range []int{1, 4, 8} {
			r, err := EncodeParallel(p, clip, DefaultCost(), chunks)
			if err != nil {
				t.Error(err)
				return
			}
			walls[chunks] = r.Wall
		}
	})
	gain14 := walls[1] - walls[4]
	gain48 := walls[4] - walls[8]
	if gain48 >= gain14 {
		t.Fatalf("no diminishing returns: 1→4 gained %v, 4→8 gained %v", gain14, gain48)
	}
}

func TestRealTimeRatio(t *testing.T) {
	v, p := env(t)
	clip := Synthetic(300, 30, 5) // 10s clip
	var serial, par Report
	v.Run(func() {
		serial, _ = EncodeParallel(p, clip, DefaultCost(), 1)
		par, _ = EncodeParallel(p, clip, DefaultCost(), 10)
	})
	// Serial software encode is slower than real time; enough chunks push
	// it under 1.0 (ExCamera's headline capability).
	if serial.RealTimeRatio <= 1 {
		t.Fatalf("serial ratio %v — cost model should be slower than real time", serial.RealTimeRatio)
	}
	if par.RealTimeRatio >= 1 {
		t.Fatalf("parallel ratio %v — should beat real time with 10 chunks", par.RealTimeRatio)
	}
}

func TestChunksClamped(t *testing.T) {
	v, p := env(t)
	clip := Synthetic(5, 5, 6)
	v.Run(func() {
		r, err := EncodeParallel(p, clip, DefaultCost(), 100)
		if err != nil {
			t.Error(err)
			return
		}
		if r.Chunks != 5 {
			t.Errorf("chunks = %d, want clamped to 5", r.Chunks)
		}
	})
}
