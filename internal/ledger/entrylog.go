package ledger

import (
	"sync"

	"repro/internal/seglog"
)

// A ledger's entry log is append-only chunks of at most chunkSize bytes,
// addressed by a uint32 offset: chunk k holds the offsets from k<<chunkBits,
// so an offset names its chunk and the place in it, and a chunk sized below
// chunkSize leaves the rest of its range unused. One chunk holds about 450
// typical topic entries, so appending touches the heap about once per chunk
// rather than once per entry. Measured constants, not knobs (DESIGN.md §10).
const (
	chunkBits = 17
	chunkSize = 1 << chunkBits
	// maxChunks is how many chunks a uint32 offset reaches.
	maxChunks = 1 << (32 - chunkBits)
	// tableChunks is how many chunks a log's table holds before it regrows:
	// 2 MiB of entries, so a topic's ledger never regrows it.
	tableChunks = 16
	// maxMembers is how many bookies of a ledger get a bit in its index: a
	// later one keeps every entry it stores in its own map.
	maxMembers = 8
)

// entryRef is one record of a ledger's index, 8 bytes and no pointer: the
// offset of an entry's bytes in the log (32 bits), their length (24) and the
// bookies that store that copy (8: bit i is the i-th bookie to hold any entry
// of the ledger).
type entryRef uint64

const heldMask entryRef = 1<<maxMembers - 1

// logRef is the record of n bytes at off, held by nobody.
func logRef(off uint32, n int) entryRef { return entryRef(off)<<32 | entryRef(n)<<8 }

func (r entryRef) off() uint32 { return uint32(r >> 32) }
func (r entryRef) size() int   { return int(r>>8) & (1<<24 - 1) }

// entryCopy is one attempt at an entry as the ledger stores it: its bytes,
// and at, where they sit in the log with no holder bits — or zero for a copy
// the log does not hold (an empty entry, one larger than a chunk, or one past
// the log's offsets), which a bookie keeps in its own map.
type entryCopy struct {
	data []byte
	at   entryRef
}

// entryTable is one ledger's entries: the log of their bytes, which the
// ledger owns, and an index its bookies share. Entry IDs are dense and
// ascending, so the index is a log of entryRefs addressed by entry ID, whose
// records, like the bytes, are never moved (DESIGN.md §10). An append copies
// each attempt at an entry into the log once, however many bookies store it;
// a bookie that stores the copy the index names sets its bit there, and one
// that stores another attempt keeps that copy in its own map. The System
// makes a ledger's table with the ledger and drops it with the ledger's
// entries; its lock is taken under a Bookie's, never the other way round.
type entryTable struct {
	mu      sync.Mutex
	index   seglog.Log[entryRef] // by entry ID
	chunks  [][]byte             // chunk k holds offsets [k<<chunkBits, …); only the last has room
	spare   [tableChunks][]byte  // the chunk table's first backing, allocated with the table
	members int                  // bookies given a bit so far
}

// add copies data into the log as an attempt at entry e and returns the
// copy. bound is how many entries the ledger takes at most
// (Writer.LedgerEntries; zero for no bound): an index the ledger's open did
// not presize is presized to it at the first add, and a fresh chunk is sized
// to what the ledger can still take at len(data) bytes an entry, so the
// chunk a full ledger ends in strands no tail.
func (t *entryTable) add(e int64, data []byte, bound int64) entryCopy {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.index.Len() == 0 {
		t.index.Reserve(int(bound))
	}
	n := len(data)
	if n == 0 {
		return entryCopy{data: []byte{}}
	}
	if n > t.room() {
		if n > chunkSize || len(t.chunks) == maxChunks {
			own := make([]byte, n)
			copy(own, data)
			return entryCopy{data: own}
		}
		size := int64(chunkSize)
		if e < bound {
			size = min(size, (bound-e)*int64(n))
		}
		if t.chunks == nil {
			t.chunks = t.spare[:0]
		}
		t.chunks = append(t.chunks, make([]byte, 0, size))
	}
	last := len(t.chunks) - 1
	c := t.chunks[last]
	at := logRef(uint32(last<<chunkBits+len(c)), n)
	t.chunks[last] = append(c, data...)
	return entryCopy{data: t.view(at), at: at}
}

// room is how many bytes the log's last chunk has left. Called with t.mu
// held.
func (t *entryTable) room() int {
	if len(t.chunks) == 0 {
		return 0
	}
	c := t.chunks[len(t.chunks)-1]
	return cap(c) - len(c)
}

// view returns the bytes r names, with their capacity clipped so an append
// by a reader can never reach a neighbouring entry. Called with t.mu held.
func (t *entryTable) view(r entryRef) []byte {
	o, n := int(r.off()&(chunkSize-1)), r.size()
	return t.chunks[r.off()>>chunkBits][o : o+n : o+n]
}

// ledgerStore is one bookie's part in one ledger.
type ledgerStore struct {
	table  *entryTable // nil until the bookie stores an entry of the ledger
	bit    entryRef    // the bookie's bit in table's index; 0 past maxMembers
	count  int         // entries this bookie stores
	last   int64       // highest entry id seen (-1 if none)
	fenced bool
	// own holds the entries this bookie stores apart from the index: a copy
	// the log does not hold, another attempt at an entry than the one the
	// index names for other bookies (a failed append retried at the same
	// id), or all of them for a bookie without a bit. Nil until the first.
	own map[int64][]byte
}

// store makes c the bookie's entry e and reports whether it held no entry e
// before. Called with the bookie's lock held.
func (ls *ledgerStore) store(t *entryTable, e int64, c entryCopy) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ls.table == nil {
		ls.table = t
		if t.members < maxMembers {
			ls.bit = 1 << t.members
			t.members++
		}
	}
	_, had := ls.own[e]
	delete(ls.own, e)
	if ls.bit == 0 {
		ls.keep(e, c.data)
		return !had
	}
	for int64(t.index.Len()) <= e {
		t.index.Append(0)
	}
	r := t.index.At(int(e))
	had = had || *r&ls.bit != 0
	switch {
	case c.at == 0: // a copy the log does not hold
		*r &^= ls.bit
		ls.keep(e, c.data)
	case *r&heldMask&^ls.bit == 0: // no other bookie holds the copy r names
		*r = c.at | ls.bit
	case *r&^heldMask == c.at:
		*r |= ls.bit
	default: // another bookie keeps an earlier attempt
		*r &^= ls.bit
		ls.keep(e, c.data)
	}
	return !had
}

func (ls *ledgerStore) keep(e int64, data []byte) {
	if ls.own == nil {
		ls.own = map[int64][]byte{}
	}
	ls.own[e] = data
}

// entry returns the copy the bookie stores as entry e, with nil data when it
// holds none. Called with the bookie's lock held.
func (ls *ledgerStore) entry(e int64) entryCopy {
	if t := ls.table; t != nil && ls.bit != 0 {
		t.mu.Lock()
		defer t.mu.Unlock()
		if e >= 0 && e < int64(t.index.Len()) {
			if r := *t.index.At(int(e)); r&ls.bit != 0 {
				at := r &^ heldMask
				return entryCopy{data: t.view(at), at: at}
			}
		}
	}
	return entryCopy{data: ls.own[e]}
}
