// Package stateful implements a Cloudburst-style stateful FaaS layer
// (§4.1, [168]): "a stateful FaaS platform that provides familiar ...
// programming with low-latency mutable state and communication". Handlers
// get a mutable key-value state abstraction backed by the Jiffy ephemeral
// store (standing in for Cloudburst's Anna KVS), with a per-instance local
// cache on the function's warm instances — reads hit the cache at memory
// speed; writes go through to the shared store and invalidate per a
// freshness bound, giving Cloudburst's bounded-staleness flavour of
// consistency.
package stateful

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faas"
	"repro/internal/jiffy"
)

// Handler is a stateful function body.
type Handler func(ctx *Ctx, payload []byte) ([]byte, error)

// Config parameterizes a stateful function.
type Config struct {
	// Function is the underlying FaaS configuration.
	Function faas.Config
	// CacheTTL bounds how stale a cached read may be. Zero disables
	// caching (every read hits the shared store). Cloudburst's guarantees
	// are causal; bounded staleness is the shape this reproduction models.
	CacheTTL time.Duration
}

// Platform wires a FaaS platform and a Jiffy namespace into a stateful
// function runtime.
//
// Concurrency: the cache table is read-mostly (a cache is inserted once per
// function instance, then looked up on every state op), so it sits behind an
// RWMutex; each instance's cache has its own lock, so state ops on distinct
// instances never contend. Hit/miss counters are atomics — they are touched
// on every cached read and must not serialize the read path.
type Platform struct {
	faas *faas.Platform
	ns   *jiffy.Namespace

	mu     sync.RWMutex
	caches map[string]*cache // tenant/function#instance → local cache

	hits   atomic.Int64
	misses atomic.Int64
}

type cache struct {
	mu      sync.Mutex
	entries map[string]cacheEntry
}

type cacheEntry struct {
	value     []byte
	fetchedAt time.Time
}

// New creates a stateful platform over an existing FaaS platform and
// namespace.
func New(fp *faas.Platform, ns *jiffy.Namespace) *Platform {
	return &Platform{faas: fp, ns: ns, caches: map[string]*cache{}}
}

// CacheStats returns (hits, misses) across all instances.
func (p *Platform) CacheStats() (int64, int64) {
	return p.hits.Load(), p.misses.Load()
}

// cacheFor returns the instance's cache, creating it on first use.
func (p *Platform) cacheFor(key string) *cache {
	p.mu.RLock()
	ch := p.caches[key]
	p.mu.RUnlock()
	if ch != nil {
		return ch
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ch = p.caches[key]; ch == nil {
		ch = &cache{entries: map[string]cacheEntry{}}
		p.caches[key] = ch
	}
	return ch
}

// Ctx extends the FaaS context with mutable state.
type Ctx struct {
	*faas.Ctx
	p   *Platform
	ttl time.Duration
	key string // cache key: tenant/function#instance
}

// Get reads a state key, serving from this instance's local cache when the
// entry is within the freshness bound.
func (c *Ctx) Get(key string) ([]byte, error) {
	now := c.Clock.Now()
	if c.ttl > 0 {
		ch := c.p.cacheFor(c.key)
		ch.mu.Lock()
		if e, ok := ch.entries[key]; ok && now.Sub(e.fetchedAt) <= c.ttl {
			val := append([]byte(nil), e.value...)
			ch.mu.Unlock()
			c.p.hits.Add(1)
			return val, nil
		}
		ch.mu.Unlock()
		c.p.misses.Add(1)
	}
	val, err := c.p.ns.Get(key)
	if err != nil {
		return nil, err
	}
	c.cacheStore(key, val, now)
	return val, nil
}

// Put writes a state key through to the shared store and refreshes this
// instance's cache. Other instances see the write once their cached entries
// age out (bounded staleness).
func (c *Ctx) Put(key string, value []byte) error {
	if err := c.p.ns.Put(key, value); err != nil {
		return err
	}
	c.cacheStore(key, value, c.Clock.Now())
	return nil
}

func (c *Ctx) cacheStore(key string, value []byte, at time.Time) {
	if c.ttl <= 0 {
		return
	}
	ch := c.p.cacheFor(c.key)
	ch.mu.Lock()
	ch.entries[key] = cacheEntry{value: append([]byte(nil), value...), fetchedAt: at}
	ch.mu.Unlock()
}

// Register deploys a stateful function under the given name and tenant.
func (p *Platform) Register(name, tenant string, h Handler, cfg Config) error {
	wrapped := func(fctx *faas.Ctx, payload []byte) ([]byte, error) {
		ctx := &Ctx{
			Ctx: fctx,
			p:   p,
			ttl: cfg.CacheTTL,
			key: fmt.Sprintf("%s/%s#%d", tenant, name, fctx.InstanceID),
		}
		return h(ctx, payload)
	}
	return p.faas.Register(name, tenant, wrapped, cfg.Function)
}

// Invoke runs tenant's stateful function name synchronously.
func (p *Platform) Invoke(tenant, name string, payload []byte) (faas.Result, error) {
	return p.faas.InvokeFor(tenant, name, payload)
}

// IsNoKey reports whether err is a state miss.
func IsNoKey(err error) bool { return errors.Is(err, jiffy.ErrNoKey) }
