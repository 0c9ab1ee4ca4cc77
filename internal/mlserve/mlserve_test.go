package mlserve

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/faas"
	"repro/internal/simclock"
)

func env(t *testing.T) (*simclock.Virtual, *faas.Platform) {
	t.Helper()
	v := simclock.NewVirtual()
	t.Cleanup(v.Close)
	return v, faas.New(v, nil)
}

func TestSyntheticLogisticLearnable(t *testing.T) {
	ds := SyntheticLogistic(2000, 5, 1)
	w := TrainSerial(ds, 0.5, 50)
	acc := Accuracy(ds, w)
	if acc < 0.8 {
		t.Fatalf("trained accuracy %.3f — dataset not learnable", acc)
	}
	zero := make([]float64, 5)
	if LogLoss(ds, w) >= LogLoss(ds, zero) {
		t.Fatal("training did not reduce loss")
	}
}

func TestShardPartition(t *testing.T) {
	ds := SyntheticLogistic(100, 3, 2)
	total := 0
	for i := 0; i < 7; i++ {
		total += ds.Shard(i, 7).Len()
	}
	if total != 100 {
		t.Fatalf("shards cover %d examples", total)
	}
}

func TestDistributedMatchesSerial(t *testing.T) {
	// Synchronous data-parallel full-batch GD must equal the serial run
	// exactly: gradients are summed, scale lr/N — same update.
	v, p := env(t)
	ds := SyntheticLogistic(400, 4, 3)
	want := TrainSerial(ds, 0.5, 5)
	for _, topo := range []Topology{Flat, Hierarchical} {
		var got []float64
		v.Run(func() {
			rep, err := TrainDistributed(p, ds, TrainConfig{
				Workers: 4, Rounds: 5, LR: 0.5, Topology: topo,
			})
			if err != nil {
				t.Error(err)
				return
			}
			got = rep.Weights
		})
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("topology %d: w[%d] = %v, want %v", topo, i, got[i], want[i])
			}
		}
	}
}

func TestHierarchicalBeatsFlatAtScale(t *testing.T) {
	// With 16 workers and a 5ms-per-request PS, the flat root serializes
	// 16 pushes; hierarchical (4 aggregators) parallelizes them.
	v, p := env(t)
	ds := SyntheticLogistic(320, 4, 4)
	walls := map[Topology]time.Duration{}
	for _, topo := range []Topology{Flat, Hierarchical} {
		v.Run(func() {
			rep, err := TrainDistributed(p, ds, TrainConfig{
				Workers: 16, Rounds: 3, LR: 0.5, Topology: topo,
				PSService: 5 * time.Millisecond, WorkPerExample: 10 * time.Microsecond,
			})
			if err != nil {
				t.Error(err)
				return
			}
			var sum time.Duration
			for _, w := range rep.RoundWalls {
				sum += w
			}
			walls[topo] = sum
		})
	}
	if walls[Hierarchical] >= walls[Flat] {
		t.Fatalf("hierarchical %v not faster than flat %v", walls[Hierarchical], walls[Flat])
	}
}

func TestPSServiceSerializes(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	ps := NewServer(v, 4, 10*time.Millisecond)
	end := v.Run(func() {
		appliers := simclock.NewGroup(v)
		for i := 0; i < 8; i++ {
			appliers.Go(func() { ps.Apply([]float64{1, 1, 1, 1}, 0.1) })
		}
		appliers.Wait()
	})
	// 8 serialized applies at 10ms = 80ms.
	if el := end.Sub(simclock.Epoch); el != 80*time.Millisecond {
		t.Fatalf("elapsed %v, want 80ms (serialized)", el)
	}
	w := ps.Snapshot()
	if math.Abs(w[0]-(-0.8)) > 1e-9 {
		t.Fatalf("w[0] = %v, want -0.8", w[0])
	}
}

func TestCodedMatVecCorrect(t *testing.T) {
	v, p := env(t)
	a := RandomMatrix(40, 20, 5)
	x := RandomVector(20, 6)
	want := MatVecSerial(a, x)
	for _, repl := range []int{1, 2} {
		var got []float64
		v.Run(func() {
			rep, err := MatVec(p, a, x, CodedConfig{Stripes: 4, Replication: repl, Seed: 7})
			if err != nil {
				t.Error(err)
				return
			}
			got = rep.Y
		})
		if d := maxAbsDiffVec(want, got); d > 1e-12 {
			t.Fatalf("replication %d: result differs by %v", repl, d)
		}
	}
}

func TestCodedBeatsUncodedUnderStragglers(t *testing.T) {
	v, p := env(t)
	a := RandomMatrix(64, 32, 8)
	x := RandomVector(32, 9)
	walls := map[int]time.Duration{}
	for _, repl := range []int{1, 2} {
		v.Run(func() {
			rep, err := MatVec(p, a, x, CodedConfig{
				Stripes: 8, Replication: repl,
				StragglerProb: 0.3, StragglerDelay: 5 * time.Second, Seed: 42,
			})
			if err != nil {
				t.Error(err)
				return
			}
			walls[repl] = rep.Wall
			if repl == 1 && rep.Stragglers == 0 {
				t.Error("straggler injection produced no stragglers")
			}
		})
	}
	// Uncoded must wait for stragglers (≥5s); 2-replication dodges them
	// unless both replicas of a stripe straggle (didn't happen at seed 42).
	if walls[1] < 5*time.Second {
		t.Fatalf("uncoded wall %v — should have hit a straggler", walls[1])
	}
	if walls[2] >= walls[1]/2 {
		t.Fatalf("coded %v not ≪ uncoded %v", walls[2], walls[1])
	}
}

// TestCodedStripeWithNoReplicaFails: when every replica of a stripe fails
// (here each straggles past the worker's one-hour timeout), MatVec returns
// an error instead of waiting for a replica that never succeeds.
func TestCodedStripeWithNoReplicaFails(t *testing.T) {
	v, p := env(t)
	a := RandomMatrix(8, 4, 1)
	x := RandomVector(4, 2)
	v.Run(func() {
		_, err := MatVec(p, a, x, CodedConfig{
			Stripes: 2, Replication: 2,
			StragglerProb: 1, StragglerDelay: 2 * time.Hour, Seed: 3,
		})
		if !errors.Is(err, faas.ErrTimeout) {
			t.Errorf("err = %v, want every replica's timeout", err)
		}
	})
}

func TestGridSearchConcurrentFasterSameBest(t *testing.T) {
	v, p := env(t)
	train, val := SyntheticLogistic(500, 4, 10).Split(0.6)
	cfg := HyperConfig{LRs: []float64{0.01, 0.1, 0.5, 1.0}, Rounds: []int{5, 20}, WorkPerTrial: 2 * time.Second}

	var serial, conc HyperReport
	v.Run(func() {
		var err error
		cfg.Concurrent = false
		serial, err = GridSearch(p, train, val, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		cfg.Concurrent = true
		conc, err = GridSearch(p, train, val, cfg)
		if err != nil {
			t.Error(err)
		}
	})
	if conc.Best != serial.Best {
		t.Fatalf("best differs: %+v vs %+v", conc.Best, serial.Best)
	}
	// 8 trials × 2s serial ≈ 16s; concurrent ≈ 2s.
	if conc.Wall >= serial.Wall/4 {
		t.Fatalf("concurrent %v not ≪ serial %v", conc.Wall, serial.Wall)
	}
	if len(conc.Trials) != 8 {
		t.Fatalf("trials = %d", len(conc.Trials))
	}
}

func TestInferenceCacheCutsLatency(t *testing.T) {
	v, p := env(t)
	store := blob.New(v, nil, blob.S3Latency)
	var coldLat, warmLat time.Duration
	v.Run(func() {
		if err := store.CreateBucket("models", "ml"); err != nil {
			t.Error(err)
			return
		}
		ms := NewModelStore(store, "models")
		ds := SyntheticLogistic(200, 64, 12)
		w := TrainSerial(ds, 0.5, 10)
		// Pad the model to make the blob read expensive.
		big := append(append([]float64{}, w...), make([]float64, 100000)...)
		if err := ms.Publish("clf", big[:len(w)]); err != nil {
			t.Error(err)
			return
		}
		if err := ms.Publish("clf-big", big); err != nil {
			t.Error(err)
			return
		}

		fn, err := Deploy(p, ms, "cached", ServeConfig{Model: "clf-big", UseCache: true})
		if err != nil {
			t.Error(err)
			return
		}
		req, _ := json.Marshal(InferRequest{Features: make([]float64, len(big))})
		res1, err := p.InvokeFor("infer", fn, req)
		if err != nil {
			t.Error(err)
			return
		}
		coldLat = res1.Latency
		res2, err := p.InvokeFor("infer", fn, req)
		if err != nil {
			t.Error(err)
			return
		}
		warmLat = res2.Latency
		hits, miss := ms.CacheStats()
		if hits != 1 || miss != 1 {
			t.Errorf("cache stats hits=%d miss=%d", hits, miss)
		}
	})
	// The warm path must dodge the blob read entirely.
	if warmLat*2 >= coldLat {
		t.Fatalf("cache did not help: cold %v, warm %v", coldLat, warmLat)
	}
}

func TestInferencePrediction(t *testing.T) {
	v, p := env(t)
	store := blob.New(v, nil, blob.LatencyModel{})
	v.Run(func() {
		if err := store.CreateBucket("models", "ml"); err != nil {
			t.Error(err)
			return
		}
		ms := NewModelStore(store, "models")
		if err := ms.Publish("m", []float64{10, 0}); err != nil {
			t.Error(err)
			return
		}
		fn, err := Deploy(p, ms, "m", ServeConfig{Model: "m"})
		if err != nil {
			t.Error(err)
			return
		}
		req, _ := json.Marshal(InferRequest{Features: []float64{1, 0}})
		res, err := p.InvokeFor("infer", fn, req)
		if err != nil {
			t.Error(err)
			return
		}
		var out InferResponse
		if err := json.Unmarshal(res.Output, &out); err != nil {
			t.Error(err)
			return
		}
		if out.Label != 1 || out.Probability < 0.99 {
			t.Errorf("prediction = %+v", out)
		}
		// Dimension mismatch surfaces as an error.
		bad, _ := json.Marshal(InferRequest{Features: []float64{1}})
		if _, err := p.InvokeFor("infer", fn, bad); err == nil {
			t.Error("dimension mismatch not rejected")
		}
	})
}

// maxAbsDiffVec returns max |a[i]-b[i]|.
func maxAbsDiffVec(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}
