package mlserve

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/faas"
	"repro/internal/simclock"
)

// HyperConfig parameterizes a hyperparameter grid search in the style of
// Seneca [186]: the system "concurrently invokes functions for all
// combinations of the hyperparameters specified and returns the
// configuration that results in the best score".
type HyperConfig struct {
	// LRs and Rounds define the grid (every pair is one configuration).
	LRs    []float64
	Rounds []int
	// Concurrent selects concurrent (serverless) vs sequential execution.
	Concurrent bool
	// WorkPerTrial models each trial's compute time. Default 2s.
	WorkPerTrial time.Duration
	// Tenant owns the trial function. Default "hyper".
	Tenant string
}

func (c HyperConfig) withDefaults() HyperConfig {
	if len(c.LRs) == 0 {
		c.LRs = []float64{0.01, 0.1, 0.5}
	}
	if len(c.Rounds) == 0 {
		c.Rounds = []int{10}
	}
	if c.WorkPerTrial == 0 {
		c.WorkPerTrial = 2 * time.Second
	}
	if c.Tenant == "" {
		c.Tenant = "hyper"
	}
	return c
}

// Trial is one evaluated configuration.
type Trial struct {
	LR     float64 `json:"lr"`
	Rounds int     `json:"rounds"`
	Loss   float64 `json:"loss"`
}

// HyperReport describes one search.
type HyperReport struct {
	Best   Trial
	Trials []Trial
	Wall   time.Duration
}

// GridSearch trains one model per (lr, rounds) configuration on held-in data
// and scores it on held-out data, returning the best by validation loss.
func GridSearch(p *faas.Platform, train, val Dataset, cfg HyperConfig) (HyperReport, error) {
	cfg = cfg.withDefaults()
	clock := p.Clock()

	fnName := fmt.Sprintf("hp-trial-%d", len(cfg.LRs)*len(cfg.Rounds))
	worker := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		var in Trial
		if err := json.Unmarshal(payload, &in); err != nil {
			return nil, err
		}
		w := TrainSerial(train, in.LR, in.Rounds)
		in.Loss = LogLoss(val, w)
		ctx.Work(cfg.WorkPerTrial)
		return json.Marshal(in)
	}
	if err := p.Register(fnName, cfg.Tenant, worker, faas.Config{
		ColdStart:  100 * time.Millisecond,
		Timeout:    time.Hour,
		MaxRetries: -1,
	}); err != nil {
		return HyperReport{}, err
	}
	defer p.UnregisterFor(cfg.Tenant, fnName)

	var grid []Trial
	for _, lr := range cfg.LRs {
		for _, r := range cfg.Rounds {
			grid = append(grid, Trial{LR: lr, Rounds: r})
		}
	}

	start := clock.Now()
	rep := HyperReport{Best: Trial{Loss: math.Inf(1)}}
	collect := func(res faas.Result, err error) *Trial {
		if err != nil {
			return nil
		}
		var out Trial
		if json.Unmarshal(res.Output, &out) != nil {
			return nil
		}
		return &out
	}
	if cfg.Concurrent {
		wg := simclock.NewGroup(clock)
		var mu sync.Mutex
		for _, tr := range grid {
			payload, _ := json.Marshal(tr)
			wg.Add(1)
			p.InvokeAsyncFor(cfg.Tenant, fnName, payload, func(res faas.Result, err error) {
				if out := collect(res, err); out != nil {
					mu.Lock()
					rep.Trials = append(rep.Trials, *out)
					mu.Unlock()
				}
				wg.Done()
			})
		}
		wg.Wait()
	} else {
		for _, tr := range grid {
			payload, _ := json.Marshal(tr)
			res, err := p.InvokeFor(cfg.Tenant, fnName, payload)
			if out := collect(res, err); out != nil {
				rep.Trials = append(rep.Trials, *out)
			}
		}
	}
	rep.Wall = clock.Now().Sub(start)
	if len(rep.Trials) != len(grid) {
		return rep, fmt.Errorf("mlserve: %d/%d trials completed", len(rep.Trials), len(grid))
	}
	for _, tr := range rep.Trials {
		if tr.Loss < rep.Best.Loss {
			rep.Best = tr
		}
	}
	return rep, nil
}
