package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// --- Count-Min ---

func TestCountMinNeverUndercounts(t *testing.T) {
	cm := NewCountMinWH(272, 5) // ε = 0.01, δ < 0.01
	truth := map[string]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(500))
		cm.Add(k, 1)
		truth[k]++
	}
	for k, want := range truth {
		if got := cm.Estimate(k); got < want {
			t.Fatalf("undercount for %s: %d < %d", k, got, want)
		}
	}
}

func TestCountMinErrorBound(t *testing.T) {
	cm := NewCountMinWH(544, 7) // ε = 0.005, δ < 0.001
	truth := map[string]uint64{}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50000; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(2000))
		cm.Add(k, 1)
		truth[k]++
	}
	bound := cm.ErrorBound()
	violations := 0
	for k, want := range truth {
		if cm.Estimate(k)-want > bound {
			violations++
		}
	}
	// δ = 0.001: essentially no violations expected over 2000 keys.
	if violations > 2 {
		t.Fatalf("%d estimates exceeded εN bound %d", violations, bound)
	}
}

func TestCountMinFigure3Dimensions(t *testing.T) {
	// The paper's Figure 3 constructs CountMinSketch(20, 20, 128).
	cm := NewCountMinWH(20, 20)
	cm.Add("event", 1)
	if cm.Estimate("event") != 1 {
		t.Fatal("single add estimate != 1")
	}
	if cm.Estimate("other") != 0 {
		t.Fatal("phantom count for absent key at low load")
	}
}

// --- SpaceSaving ---

func TestSpaceSavingFindsHeavyHitters(t *testing.T) {
	ss := NewSpaceSaving(10)
	// Two heavy keys among uniform noise.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		switch {
		case i%3 == 0:
			ss.Add("heavy-A", 1)
		case i%5 == 0:
			ss.Add("heavy-B", 1)
		default:
			ss.Add(fmt.Sprintf("noise-%d", rng.Intn(5000)), 1)
		}
	}
	top := ss.Top(2)
	if top[0].Key != "heavy-A" || top[1].Key != "heavy-B" {
		t.Fatalf("top = %+v", top)
	}
	// True count of heavy-A ≈ 3334; its count less its error must still
	// exceed N/k.
	if top[0].Count-top[0].Err <= 10000/10 {
		t.Fatalf("heavy-A not guaranteed heavy: %+v", top[0])
	}
}

func TestSpaceSavingErrorBound(t *testing.T) {
	ss := NewSpaceSaving(20)
	truth := map[string]uint64{}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		k := fmt.Sprintf("k%d", int(math.Abs(rng.NormFloat64())*30))
		ss.Add(k, 1)
		truth[k]++
	}
	for _, e := range ss.Top(0) {
		if e.Err > 20000/20 {
			t.Fatalf("entry error %d exceeds N/k = %d", e.Err, 20000/20)
		}
		if e.Count < truth[e.Key] {
			t.Fatalf("undercount for %s: %d < %d", e.Key, e.Count, truth[e.Key])
		}
	}
}
