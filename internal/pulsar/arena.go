package pulsar

// entryChunkSize is the most entry bytes a topic asks the heap for at once:
// one chunk holds about 400 typical entries, so the publish path touches the
// heap roughly once per chunk instead of once per message.
const entryChunkSize = 128 << 10

// entryBuf carves an n-byte buffer for the entry at position pos of the
// topic's current ledger from that ledger's chunk (ts.chunk), which
// rollLocked drops, so a chunk holds one ledger's entries and lives as long
// as that ledger. There is no free list: the bookies retain each entry
// uncopied until its ledger is deleted. A fresh chunk is sized to what the
// ledger can still take at n bytes an entry, so a roll strands no tail. The
// result has capacity exactly n, so an append by a confused caller can never
// bleed into a neighbouring entry. Called with the topic's lock held.
func (ts *topicState) entryBuf(n int, pos int64) []byte {
	if n > len(ts.chunk) {
		size := min(entryChunkSize, (topicLedgerEntries-pos)*int64(n))
		ts.chunk = make([]byte, max(size, int64(n)))
	}
	out := ts.chunk[:n:n]
	ts.chunk = ts.chunk[n:]
	return out
}
