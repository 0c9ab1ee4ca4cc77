package mlserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/faas"
)

// CodedConfig parameterizes straggler-resilient distributed mat-vec — the
// coded-computation setting of [104]/[132], where redundant encoded work
// lets the result complete from any sufficient subset of workers, providing
// "in-built resiliency against stragglers that are characteristic of
// serverless architectures".
type CodedConfig struct {
	// Stripes is how many row-stripes the matrix splits into.
	Stripes int
	// Replication is how many workers compute each stripe (1 = uncoded:
	// the result needs *every* worker; ≥2 = coded: the result needs any
	// one replica per stripe).
	Replication int
	// StragglerProb is each task's probability of straggling.
	StragglerProb float64
	// StragglerDelay is the extra modelled latency a straggler pays.
	// Default 10ms × rows.
	StragglerDelay time.Duration
	// Seed drives straggler injection.
	Seed int64
	// Tenant owns the worker function. Default "coded".
	Tenant string
}

// workPerEntry models compute per matrix entry.
const workPerEntry = time.Microsecond

func (c CodedConfig) withDefaults(rows int) CodedConfig {
	if c.Stripes <= 0 {
		c.Stripes = 4
	}
	if c.Replication <= 0 {
		c.Replication = 1
	}
	if c.StragglerDelay == 0 {
		c.StragglerDelay = 10 * time.Duration(rows) * time.Millisecond
	}
	if c.Tenant == "" {
		c.Tenant = "coded"
	}
	return c
}

// CodedReport describes one mat-vec run.
type CodedReport struct {
	Y []float64
	// Wall is when the result was complete (first replica per stripe).
	Wall time.Duration
	// Invocations is total tasks launched (the redundancy cost).
	Invocations int
	// Stragglers is how many tasks straggled.
	Stragglers int
}

// MatVec computes y = A·x over FaaS workers with the given striping and
// replication. The returned wall time is when every stripe had its first
// completed replica — redundant replicas may still be running (and billing).
func MatVec(p *faas.Platform, a [][]float64, x []float64, cfg CodedConfig) (CodedReport, error) {
	rows := len(a)
	if rows == 0 || len(a[0]) != len(x) {
		return CodedReport{}, fmt.Errorf("mlserve: matvec dimension mismatch")
	}
	cfg = cfg.withDefaults(rows)
	if cfg.Stripes > rows {
		cfg.Stripes = rows
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Pre-decide stragglers deterministically, task order = (stripe, replica).
	straggle := make([][]bool, cfg.Stripes)
	nStraggle := 0
	for s := range straggle {
		straggle[s] = make([]bool, cfg.Replication)
		for r := range straggle[s] {
			if rng.Float64() < cfg.StragglerProb {
				straggle[s][r] = true
				nStraggle++
			}
		}
	}

	fnName := fmt.Sprintf("matvec-%d-%d", cfg.Stripes, cfg.Replication)
	worker := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		var in struct{ Stripe, Replica int }
		if err := json.Unmarshal(payload, &in); err != nil {
			return nil, err
		}
		lo, hi := in.Stripe*rows/cfg.Stripes, (in.Stripe+1)*rows/cfg.Stripes
		out := make([]float64, hi-lo)
		for i := lo; i < hi; i++ {
			for j, v := range a[i] {
				out[i-lo] += v * x[j]
			}
		}
		ctx.Work(time.Duration((hi-lo)*len(x)) * workPerEntry)
		if straggle[in.Stripe][in.Replica] {
			ctx.Work(cfg.StragglerDelay)
		}
		return json.Marshal(out)
	}
	if err := p.Register(fnName, cfg.Tenant, worker, faas.Config{
		ColdStart:  20 * time.Millisecond,
		Timeout:    time.Hour,
		MaxRetries: -1,
	}); err != nil {
		return CodedReport{}, err
	}
	defer p.UnregisterFor(cfg.Tenant, fnName)

	payloads := make([][]byte, 0, cfg.Stripes*cfg.Replication)
	for s := 0; s < cfg.Stripes; s++ {
		for r := 0; r < cfg.Replication; r++ {
			payload, _ := json.Marshal(struct{ Stripe, Replica int }{s, r})
			payloads = append(payloads, payload)
		}
	}
	// Every task starts now and Result.Latency is end-to-end, so a stripe is
	// done at its fastest replica's latency and the result at the slowest
	// stripe's. Wait also drains the redundant replicas (they exist and
	// bill; the *result* was ready at wall).
	outs, errs := faas.Drive(p, cfg.Tenant, fnName, payloads, make([]time.Duration, len(payloads))).Wait()
	var wall time.Duration
	y := make([]float64, 0, rows)
	for s := 0; s < cfg.Stripes; s++ {
		lo, hi := s*cfg.Replication, (s+1)*cfg.Replication
		first := -1
		for i := lo; i < hi; i++ {
			if errs[i] == nil && (first < 0 || outs[i].Latency < outs[first].Latency) {
				first = i
			}
		}
		if first < 0 {
			return CodedReport{}, fmt.Errorf("mlserve: stripe %d: every replica failed: %w", s, errors.Join(errs[lo:hi]...))
		}
		var part []float64
		if err := json.Unmarshal(outs[first].Output, &part); err != nil {
			return CodedReport{}, err
		}
		y = append(y, part...)
		wall = max(wall, outs[first].Latency)
	}
	return CodedReport{
		Y:           y,
		Wall:        wall,
		Invocations: cfg.Stripes * cfg.Replication,
		Stragglers:  nStraggle,
	}, nil
}

// MatVecSerial is the baseline the coded MatVec is checked against.
func MatVecSerial(a [][]float64, x []float64) []float64 {
	y := make([]float64, len(a))
	for i, row := range a {
		for j, v := range row {
			y[i] += v * x[j]
		}
	}
	return y
}

// RandomMatrix generates a deterministic rows×cols matrix.
func RandomMatrix(rows, cols int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	a := make([][]float64, rows)
	for i := range a {
		a[i] = make([]float64, cols)
		for j := range a[i] {
			a[i][j] = rng.NormFloat64()
		}
	}
	return a
}

// RandomVector generates a deterministic vector.
func RandomVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}
