package mlserve

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/faas"
)

// ModelStore is the tiered model repository of TrIMS [88]: models persist in
// blob storage; a shared in-memory cache across function instances removes
// the model-loading component of inference cold starts — the overhead that
// Ishakian et al. [112] measured to dominate serverless inference latency.
type ModelStore struct {
	store  *blob.Store
	bucket string

	mu    sync.Mutex
	cache map[string][]float64
	hits  int64
	miss  int64
}

// NewModelStore creates a store over an existing bucket.
func NewModelStore(store *blob.Store, bucket string) *ModelStore {
	return &ModelStore{store: store, bucket: bucket, cache: map[string][]float64{}}
}

// Publish uploads model weights under name.
func (m *ModelStore) Publish(name string, weights []float64) error {
	raw, _ := json.Marshal(weights)
	_, err := m.store.Put(m.bucket, "models/"+name, raw, blob.PutOptions{})
	return err
}

// Load fetches a model, using the shared cache when allowed. The blob read
// (and its modelled latency) is paid only on a miss.
func (m *ModelStore) Load(name string, useCache bool) ([]float64, error) {
	if useCache {
		m.mu.Lock()
		if w, ok := m.cache[name]; ok {
			m.hits++
			m.mu.Unlock()
			return w, nil
		}
		m.mu.Unlock()
	}
	raw, _, err := m.store.Get(m.bucket, "models/"+name)
	if err != nil {
		return nil, err
	}
	var w []float64
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.miss++
	if useCache {
		m.cache[name] = w
	}
	m.mu.Unlock()
	return w, nil
}

// CacheStats returns (hits, misses).
func (m *ModelStore) CacheStats() (int64, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.miss
}

// ServeConfig parameterizes an inference deployment.
type ServeConfig struct {
	// Model names the published model to serve.
	Model string
	// UseCache enables the shared model cache (the TrIMS treatment arm).
	UseCache bool
	// Function overrides the function config.
	Function faas.Config
	// Tenant owns the function. Default "infer".
	Tenant string
}

// inferCost models per-request compute ([112]: inference is cheap; loading
// is what hurts).
const inferCost = 2 * time.Millisecond

func (c ServeConfig) withDefaults() ServeConfig {
	if c.Tenant == "" {
		c.Tenant = "infer"
	}
	if c.Function.ColdStart == 0 {
		c.Function.ColdStart = 150 * time.Millisecond
	}
	if c.Function.MaxRetries == 0 {
		c.Function.MaxRetries = -1
	}
	return c
}

// InferRequest is the payload for a deployed inference function.
type InferRequest struct {
	Features []float64 `json:"features"`
}

// InferResponse is the function's output.
type InferResponse struct {
	Probability float64 `json:"probability"`
	Label       int     `json:"label"`
}

// Deploy registers an inference function for a published model and returns
// its name. Each invocation loads the model (cache-aware), pays the
// inference cost, and returns the logistic prediction.
func Deploy(p *faas.Platform, ms *ModelStore, name string, cfg ServeConfig) (string, error) {
	cfg = cfg.withDefaults()
	fnName := "infer-" + name
	handler := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		var req InferRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		w, err := ms.Load(cfg.Model, cfg.UseCache)
		if err != nil {
			return nil, err
		}
		if len(req.Features) != len(w) {
			return nil, fmt.Errorf("mlserve: feature dim %d != model dim %d", len(req.Features), len(w))
		}
		ctx.Work(inferCost)
		prob := sigmoid(dot(req.Features, w))
		label := 0
		if prob >= 0.5 {
			label = 1
		}
		return json.Marshal(InferResponse{Probability: prob, Label: label})
	}
	if err := p.Register(fnName, cfg.Tenant, handler, cfg.Function); err != nil {
		return "", err
	}
	return fnName, nil
}
