package jiffy

import (
	"strings"

	"repro/internal/blob"
)

// FlushTarget configures where expiring namespaces persist their data.
type FlushTarget struct {
	Store  *blob.Store
	Bucket string
}

// SetFlushTarget installs a persistent tier: namespaces created with
// FlushOnExpiry have their KV contents written to the blob store when their
// lease lapses, instead of being silently discarded — the "flush to
// persistent storage" flavour of Jiffy's lifetime management, for state
// whose consumer may arrive after the lease.
func (c *Controller) SetFlushTarget(t FlushTarget) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flush = t
}

// flushKey returns the blob key a namespace's KV entry flushes to. A
// namespace path never contains "//" (splitPath), so the "//" after it ends
// the path: no other namespace's key can share the name, and the keys of
// nsPath's children are not under flushPrefix(nsPath).
func flushKey(nsPath, key string) string {
	return flushPrefix(nsPath) + key
}

// flushPrefix is the blob-key prefix of everything nsPath flushes.
func flushPrefix(nsPath string) string { return "flushed" + nsPath + "//" }

// flushFn builds the closure persisting a namespace's KV pairs to the flush
// target. Called with ns.mu held during expiry teardown, before the blocks
// return to the pool (which clears their maps); the pairs are copied out so
// the blob writes can run later on their own tracked goroutine (blob Puts
// sleep on the clock and must not run under any store lock).
func flushFn(t FlushTarget, ns *Namespace, blocks []*block) func() {
	if t.Store == nil || !ns.flushOnExpiry {
		return nil
	}
	type pair struct {
		key string
		val []byte
	}
	var pairs []pair
	for _, b := range blocks {
		for k, v := range b.kv {
			pairs = append(pairs, pair{k, append([]byte(nil), v...)})
		}
	}
	store, bucket, path := t.Store, t.Bucket, ns.path
	return func() {
		for _, p := range pairs {
			_, _ = store.Put(bucket, flushKey(path, p.key), p.val, blob.PutOptions{})
		}
	}
}

// Flushed reads a flushed value back from the persistent tier.
func Flushed(t FlushTarget, nsPath, key string) ([]byte, error) {
	data, _, err := t.Store.Get(t.Bucket, flushKey(nsPath, key))
	return data, err
}

// listFlushed returns the keys flushed from a namespace.
func listFlushed(t FlushTarget, nsPath string) ([]string, error) {
	prefix := flushPrefix(nsPath)
	infos, _, err := t.Store.List(t.Bucket, prefix, "", 0)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(infos))
	for i, info := range infos {
		out[i] = strings.TrimPrefix(info.Key, prefix)
	}
	return out, nil
}
