package jiffy

import (
	"fmt"
	"sync"
)

// GlobalKV is the single-global-address-space baseline of §4.4: one flat
// hash space over all blocks, shared by every tenant — the design of
// classical distributed shared memory and recent in-memory stores that the
// paper argues "precludes isolation guarantees for scaling memory resources
// in multi-tenant settings, since adding/removing memory resources for an
// application requires re-partitioning data for the entire address-space."
//
// Experiment E5 contrasts it with Namespace.Scale: scaling GlobalKV moves
// keys belonging to *every* tenant; scaling a Jiffy namespace moves only
// that namespace's keys.
type GlobalKV struct {
	mu     sync.Mutex
	blocks []map[string][]byte // partition → full key → value
}

// NewGlobalKV creates a flat store with n partitions.
func NewGlobalKV(n int) *GlobalKV {
	if n < 1 {
		n = 1
	}
	g := &GlobalKV{blocks: make([]map[string][]byte, n)}
	for i := range g.blocks {
		g.blocks[i] = map[string][]byte{}
	}
	return g
}

func globalKey(tenant, key string) string { return tenant + "\x00" + key }

// Put stores a tenant's key.
func (g *GlobalKV) Put(tenant, key string, value []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	fk := globalKey(tenant, key)
	g.blocks[int(hashKey(fk))%len(g.blocks)][fk] = append([]byte(nil), value...)
}

// Scale resizes the global space by delta partitions, re-hashing the entire
// address space. It returns, per tenant, how many of that tenant's keys had
// to move — the cross-tenant disruption Jiffy's namespaces avoid.
func (g *GlobalKV) Scale(delta int) (movedByTenant map[string]int, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	newCount := len(g.blocks) + delta
	if newCount < 1 {
		return nil, fmt.Errorf("%w: %d blocks requested", ErrMinBlocks, newCount)
	}
	fresh := make([]map[string][]byte, newCount)
	for i := range fresh {
		fresh[i] = map[string][]byte{}
	}
	movedByTenant = map[string]int{}
	oldCount := len(g.blocks)
	for _, part := range g.blocks {
		for fk, v := range part {
			h := int(hashKey(fk))
			fresh[h%newCount][fk] = v
			if h%newCount != h%oldCount {
				tenant := fk[:indexByte(fk, 0)]
				movedByTenant[tenant]++
			}
		}
	}
	g.blocks = fresh
	return movedByTenant, nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return len(s)
}
