package pulsar

// arenaBlockSize is the granularity at which entry arenas request memory.
// One block yields about 400 typical entries, so the allocator touches the
// heap roughly once per block instead of once per publish. It is 128 KB, not
// 64: the ledger rolls and deletes that bound a topic's memory
// (topicLedgerEntries) cost a few allocations each, which the halved block
// count pays for; a block lives until every ledger holding one of its entries
// is deleted either way.
const arenaBlockSize = 128 << 10

// entryArena is a bump allocator for encoded entry buffers. Each producer
// owns one (guarded by the producer's mutex): carving entries out of large
// blocks amortizes the per-publish allocation to ~zero in steady state.
//
// There is deliberately no free list for the entries themselves: an entry
// buffer is handed — uncopied — to the bookie ensemble, which retains it for
// the ledger's lifetime (the topic's message window lets go of its view once
// the message is acked), so individual entries are never recyclable. What
// the arena buys is fewer, larger heap objects (and GC ticket counts that
// don't scale with publish volume); a block stays pinned until the last
// ledger holding one of its entries is deleted — for a producer spanning
// partitions, until each has rolled past it.
type entryArena struct {
	block []byte // tail of the current block
}

// alloc carves an n-byte buffer. The result has capacity exactly n, so an
// append by a confused caller can never bleed into a neighbouring entry.
func (a *entryArena) alloc(n int) []byte {
	if n > len(a.block) {
		size := arenaBlockSize
		if n > size {
			size = n
		}
		a.block = make([]byte, size)
	}
	out := a.block[:n:n]
	a.block = a.block[n:]
	return out
}
