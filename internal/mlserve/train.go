package mlserve

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/faas"
	"repro/internal/simclock"
)

// Topology selects the parameter-server arrangement.
type Topology int

const (
	// Flat: every worker pushes to the single root server.
	Flat Topology = iota
	// Hierarchical: workers push to √W-ish aggregators that forward
	// combined updates to the root ([94]).
	Hierarchical
)

// TrainConfig parameterizes distributed training.
type TrainConfig struct {
	Workers int
	Rounds  int
	LR      float64
	// Topology selects flat vs hierarchical parameter serving.
	Topology Topology
	// PSService is the parameter server's per-request service time.
	// Default 5ms.
	PSService time.Duration
	// WorkPerExample models per-example gradient compute. Default 50µs.
	WorkPerExample time.Duration
	// Tenant owns the worker function. Default "mltrain".
	Tenant string
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Rounds <= 0 {
		c.Rounds = 10
	}
	if c.LR == 0 {
		c.LR = 0.5
	}
	if c.PSService == 0 {
		c.PSService = 5 * time.Millisecond
	}
	if c.WorkPerExample == 0 {
		c.WorkPerExample = 50 * time.Microsecond
	}
	if c.Tenant == "" {
		c.Tenant = "mltrain"
	}
	return c
}

// TrainReport describes a distributed training run.
type TrainReport struct {
	Weights    []float64
	RoundWalls []time.Duration
	FinalLoss  float64
}

// TrainDistributed runs synchronous data-parallel logistic-regression
// training over FaaS workers with gradients funnelled through a parameter
// server. With identical data, rounds, and learning rate it computes exactly
// the same weights as TrainSerial — the topologies differ only in wall-clock
// time (experiment E8).
func TrainDistributed(p *faas.Platform, ds Dataset, cfg TrainConfig) (TrainReport, error) {
	cfg = cfg.withDefaults()
	clock := p.Clock()
	dim := len(ds.X[0])
	root := NewServer(clock, dim, cfg.PSService)

	// Build the push path.
	paths := make([]Pusher, cfg.Workers)
	switch cfg.Topology {
	case Flat:
		for i := range paths {
			paths[i] = root
		}
	case Hierarchical:
		aggs := make([]*Aggregator, isqrt(cfg.Workers)) // fan-out ≈ √Workers
		// Workers are dealt round-robin; each aggregator knows its exact
		// fan-in so it flushes once per round.
		for a := range aggs {
			fanIn := cfg.Workers / len(aggs)
			if a < cfg.Workers%len(aggs) {
				fanIn++
			}
			aggs[a] = NewAggregator(clock, root, fanIn, cfg.PSService)
		}
		for i := range paths {
			paths[i] = aggs[i%len(aggs)]
		}
	}

	// The worker function: pull-free (weights arrive in the payload
	// snapshot), gradient over its shard, push along its path.
	var snapMu sync.Mutex
	snapshot := root.Snapshot()
	fnName := fmt.Sprintf("sgd-worker-%d-%d", cfg.Workers, int(cfg.Topology))
	worker := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		var in struct{ Shard int }
		if err := json.Unmarshal(payload, &in); err != nil {
			return nil, err
		}
		shard := ds.Shard(in.Shard, cfg.Workers)
		snapMu.Lock()
		w := append([]float64{}, snapshot...)
		snapMu.Unlock()
		g := Gradient(shard, w)
		ctx.Work(time.Duration(shard.Len()) * cfg.WorkPerExample)
		paths[in.Shard].Push(g, cfg.LR/float64(ds.Len()))
		return nil, nil
	}
	if err := p.Register(fnName, cfg.Tenant, worker, faas.Config{
		ColdStart:  50 * time.Millisecond,
		Timeout:    time.Hour,
		MaxRetries: -1,
	}); err != nil {
		return TrainReport{}, err
	}
	defer p.UnregisterFor(cfg.Tenant, fnName)

	rep := TrainReport{}
	for r := 0; r < cfg.Rounds; r++ {
		snapMu.Lock()
		snapshot = root.Snapshot()
		snapMu.Unlock()
		start := clock.Now()
		wg := simclock.NewGroup(clock)
		var mu sync.Mutex
		var firstErr error
		for wkr := 0; wkr < cfg.Workers; wkr++ {
			payload, _ := json.Marshal(struct{ Shard int }{wkr})
			wg.Add(1)
			p.InvokeAsyncFor(cfg.Tenant, fnName, payload, func(_ faas.Result, err error) {
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				wg.Done()
			})
		}
		wg.Wait()
		if firstErr != nil {
			return rep, firstErr
		}
		rep.RoundWalls = append(rep.RoundWalls, clock.Now().Sub(start))
	}
	rep.Weights = root.Snapshot()
	rep.FinalLoss = LogLoss(ds, rep.Weights)
	return rep, nil
}

func isqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}
