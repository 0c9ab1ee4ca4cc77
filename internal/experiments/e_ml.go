package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/mlserve"
)

// E8Training: §5.2 — data-parallel serverless training, and Feng et al.'s
// [94] "hierarchical update and reuse of parameter servers to minimize the
// latency". Sweep workers; compare flat vs hierarchical PS round times.
func E8Training() Table {
	table := Table{
		ID:      "E8",
		Title:   "Data-parallel training: flat vs hierarchical parameter server",
		Claim:   "§5.2/[94]: the flat PS serializes worker updates; hierarchical aggregation pushes the scaling knee right",
		Columns: []string{"workers", "flat round", "hier round", "hier speedup", "loss(flat)", "loss(hier)"},
	}
	ds := mlserve.SyntheticLogistic(640, 4, 8)
	for _, w := range []int{1, 2, 4, 8, 16, 32} {
		walls := map[mlserve.Topology]time.Duration{}
		losses := map[mlserve.Topology]float64{}
		for _, topo := range []mlserve.Topology{mlserve.Flat, mlserve.Hierarchical} {
			p, v := core.NewVirtual(core.Options{})
			v.Run(func() {
				rep, err := mlserve.TrainDistributed(p.FaaS, ds, mlserve.TrainConfig{
					Workers: w, Rounds: 3, LR: 0.5, Topology: topo,
					PSService: 5 * time.Millisecond, WorkPerExample: 20 * time.Microsecond,
				})
				if err != nil {
					panic(err)
				}
				var sum time.Duration
				for _, rw := range rep.RoundWalls {
					sum += rw
				}
				walls[topo] = sum / time.Duration(len(rep.RoundWalls))
				losses[topo] = rep.FinalLoss
			})
			v.Close()
		}
		table.Rows = append(table.Rows, []string{
			f("%d", w),
			walls[mlserve.Flat].Round(time.Millisecond).String(),
			walls[mlserve.Hierarchical].Round(time.Millisecond).String(),
			f("%.2fx", float64(walls[mlserve.Flat])/float64(walls[mlserve.Hierarchical])),
			f("%.4f", losses[mlserve.Flat]),
			f("%.4f", losses[mlserve.Hierarchical]),
		})
	}
	table.Notes = "losses identical by construction (synchronous full-batch GD); only wall time differs"
	return table
}

// E9Stragglers: §5.2/[104] — "in-built resiliency against stragglers that
// are characteristic of serverless architectures ... based on
// error-correcting codes to create redundant computation" [132].
func E9Stragglers() Table {
	table := Table{
		ID:      "E9",
		Title:   "Coded (2-replicated) vs uncoded mat-vec under stragglers",
		Claim:   "§5.2/[104],[132]: redundant coded computation keeps completion time near straggler-free",
		Columns: []string{"straggler p", "uncoded wall", "coded wall", "coded invocations", "coded speedup"},
	}
	a := mlserve.RandomMatrix(64, 32, 10)
	x := mlserve.RandomVector(32, 11)
	for _, prob := range []float64{0, 0.1, 0.3} {
		walls := map[int]time.Duration{}
		invs := map[int]int{}
		for _, repl := range []int{1, 2} {
			p, v := core.NewVirtual(core.Options{})
			v.Run(func() {
				rep, err := mlserve.MatVec(p.FaaS, a, x, mlserve.CodedConfig{
					Stripes: 8, Replication: repl,
					StragglerProb: prob, StragglerDelay: 5 * time.Second, Seed: 77,
				})
				if err != nil {
					panic(err)
				}
				walls[repl] = rep.Wall
				invs[repl] = rep.Invocations
			})
			v.Close()
		}
		table.Rows = append(table.Rows, []string{
			f("%.1f", prob),
			walls[1].Round(time.Millisecond).String(),
			walls[2].Round(time.Millisecond).String(),
			f("%d", invs[2]),
			f("%.1fx", float64(walls[1])/float64(walls[2])),
		})
	}
	table.Notes = "uncoded waits for every straggler; coded completes from the first replica per stripe (2x compute cost)"
	return table
}

// E16Hyperparam: §5.2/[186] (Seneca) — "the system concurrently invokes
// functions for all combinations of the hyperparameters specified and
// returns the configuration that results in the best score".
func E16Hyperparam() Table {
	table := Table{
		ID:      "E16",
		Title:   "Hyperparameter grid search: sequential vs concurrent functions",
		Claim:   "§5.2/[186]: concurrent invocation makes search wall-time ≈ one trial instead of the sum",
		Columns: []string{"mode", "trials", "wall", "best lr", "best rounds", "best loss"},
	}
	train, val := mlserve.SyntheticLogistic(700, 4, 12).Split(0.6)
	cfg := mlserve.HyperConfig{
		LRs:          []float64{0.01, 0.1, 0.5, 1.0},
		Rounds:       []int{5, 20, 50},
		WorkPerTrial: 3 * time.Second,
	}
	for _, conc := range []bool{false, true} {
		p, v := core.NewVirtual(core.Options{})
		cfg.Concurrent = conc
		var rep mlserve.HyperReport
		v.Run(func() {
			var err error
			rep, err = mlserve.GridSearch(p.FaaS, train, val, cfg)
			if err != nil {
				panic(err)
			}
		})
		v.Close()
		mode := "sequential"
		if conc {
			mode = "concurrent"
		}
		table.Rows = append(table.Rows, []string{
			mode, f("%d", len(rep.Trials)), rep.Wall.Round(time.Millisecond).String(),
			f("%.2f", rep.Best.LR), f("%d", rep.Best.Rounds), f("%.4f", rep.Best.Loss),
		})
	}
	table.Notes = "both modes must find the same best configuration"
	return table
}

// E17Inference: §5.2 — [112] "warm serverless executions are within an
// acceptable latency range, while cold starts add significant overhead";
// [88] (TrIMS) mitigates the model-loading part with a tiered model store.
func E17Inference() Table {
	table := Table{
		ID:      "E17",
		Title:   "Inference latency: shared model cache vs reload-per-request",
		Claim:   "§5.2/[88],[112]: model loading dominates inference cold cost; a tiered model store removes it",
		Columns: []string{"config", "first (cold)", "p50 warm", "p99 warm"},
	}
	for _, useCache := range []bool{false, true} {
		p, v := core.NewVirtual(core.Options{})
		var first time.Duration
		var warm []time.Duration
		v.Run(func() {
			if err := p.Blob.CreateBucket("models", "ml"); err != nil {
				panic(err)
			}
			ms := mlserve.NewModelStore(p.Blob, "models")
			model := mlserve.RandomVector(60000, 14) // ~0.5MB of weights
			if err := ms.Publish("clf", model); err != nil {
				panic(err)
			}
			name := "nocache"
			if useCache {
				name = "cache"
			}
			fn, err := mlserve.Deploy(p.FaaS, ms, name, mlserve.ServeConfig{Model: "clf", UseCache: useCache, Tenant: "infer"})
			if err != nil {
				panic(err)
			}
			req := inferPayload(len(model))
			for i := 0; i < 21; i++ {
				res, err := p.FaaS.InvokeFor("infer", fn, req)
				if err != nil {
					panic(err)
				}
				if i == 0 {
					first = res.Latency
				} else {
					warm = append(warm, res.Latency)
				}
			}
		})
		v.Close()
		cfg := "reload per request"
		if useCache {
			cfg = "shared model cache"
		}
		table.Rows = append(table.Rows, []string{
			cfg, first.Round(time.Millisecond).String(),
			faas.Percentile(warm, 50).Round(time.Millisecond).String(),
			faas.Percentile(warm, 99).Round(time.Millisecond).String(),
		})
	}
	table.Notes = "with the cache, only the first request pays the blob model fetch"
	return table
}

func inferPayload(dim int) []byte {
	// Features of the right dimension, all zeros → probability 0.5.
	b := []byte(`{"features":[`)
	for i := 0; i < dim; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '0')
	}
	return append(b, ']', '}')
}
