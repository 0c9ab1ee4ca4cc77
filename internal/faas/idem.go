package faas

import "time"

// idemChunk is the size of the byte chunks a dedup window copies keys and
// outputs into; idemShared is the largest key+output that starts a fresh
// chunk when it does not fit the current one's free tail. A larger one gets a
// chunk of exactly its size instead, so a chunk given up for a new one wastes
// under 1/16 of itself.
const (
	idemChunk  = 16 << 10
	idemShared = idemChunk / 16
)

// idemRec is one stored success: what a dedup hit replays (the handler's
// output, whether it paid a cold start, its latency and billed duration),
// when it lapses, and where its key and output sit in the window's arena.
// It holds no pointer, so a window's records are one block the collector
// never scans.
type idemRec struct {
	expires     int64 // nanoseconds after the window's base instant
	lat, billed int64
	chunk       uint32 // absolute chunk number, wrapping
	off         uint32 // key at chunk[off:], output right after it
	klen, olen  uint32
	cold        bool
}

// idemChunkBuf is one arena chunk and the number of the newest record that
// keeps bytes in it: the chunk is dropped when that record is popped.
type idemChunkBuf struct {
	buf  []byte
	last uint64
}

// fifo is a queue whose items have absolute numbers: items[head:] are the
// items numbered first+head onward. The head is compacted away once it
// passes half the slice, so push and pop are O(1) amortised.
type fifo[T any] struct {
	items []T
	head  int
	first uint64
}

func (q *fifo[T]) len() int         { return len(q.items) - q.head }
func (q *fifo[T]) next() uint64     { return q.first + uint64(len(q.items)) }
func (q *fifo[T]) at(n uint64) *T   { return &q.items[n-q.first] }
func (q *fifo[T]) front() *T        { return &q.items[q.head] }
func (q *fifo[T]) frontNum() uint64 { return q.first + uint64(q.head) }

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) pop() {
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head > len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.first += uint64(q.head)
		q.head = 0
	}
}

// idemWindow is a function's dedup window: the successful keyed invokes of
// the last DedupWindow, oldest first. index maps a key to the number of its
// newest record (it holds the caller's key string, uncopied); the records
// copy key and output into an append-only chunk arena, so a cached output
// pins neither the request body nor the handler's buffer, and the chunks go
// as the records that use them lapse.
type idemWindow struct {
	base   time.Time // expiries count from here
	recs   fifo[idemRec]
	index  map[string]uint64
	chunks fifo[idemChunkBuf]
	// openNum is the chunk further records are appended to while open; a
	// record too large to share a chunk gets one of its own after it.
	openNum uint64
	open    bool
}

// since is now as an offset from the window's base. Sub keeps a monotonic
// reading when both instants carry one, as time.Time's own comparisons do.
func (w *idemWindow) since(now time.Time) int64 { return int64(now.Sub(w.base)) }

// lookup returns the record for key if it has not lapsed by now; a lapsed
// key is forgotten. The output is the arena's copy with its capacity clipped,
// so an append by the caller cannot reach a neighbour; an empty one is nil.
func (w *idemWindow) lookup(key string, now time.Time) (Result, bool) {
	n, ok := w.index[key]
	if !ok {
		return Result{}, false
	}
	r := w.recs.at(n)
	if w.since(now) > r.expires {
		delete(w.index, key)
		return Result{}, false
	}
	buf := w.chunks.at(w.chunkNum(r.chunk)).buf
	o, end := r.off+r.klen, r.off+r.klen+r.olen
	res := Result{Cold: r.cold, Latency: time.Duration(r.lat), Billed: time.Duration(r.billed)}
	if r.olen > 0 {
		res.Output = buf[o:end:end]
	}
	return res, true
}

// chunkNum widens a record's wrapping chunk number to its place in chunks.
func (w *idemWindow) chunkNum(c uint32) uint64 {
	return w.chunks.frontNum() + uint64(c-uint32(w.chunks.frontNum()))
}

// store drops the records that have lapsed by now, then appends key's, which
// lapses window after now.
func (w *idemWindow) store(key string, res Result, now time.Time, window time.Duration) {
	at := w.since(now)
	for w.recs.len() > 0 && at > w.recs.front().expires {
		w.popRec()
	}
	need := len(key) + len(res.Output)
	cn := w.openNum
	if !w.open || cap(w.chunks.at(cn).buf)-len(w.chunks.at(cn).buf) < need {
		size := need
		if need <= idemShared {
			size = idemChunk
		}
		cn = w.chunks.next()
		w.chunks.push(idemChunkBuf{buf: make([]byte, 0, size)})
		if need <= idemShared {
			// A small record gives up the open chunk's tail, under
			// idemShared bytes; a large one leaves that chunk open.
			w.open, w.openNum = true, cn
		}
	}
	num := w.recs.next()
	c := w.chunks.at(cn)
	off := len(c.buf)
	c.buf = append(append(c.buf, key...), res.Output...)
	c.last = num
	w.recs.push(idemRec{
		expires: at + int64(window),
		lat:     int64(res.Latency),
		billed:  int64(res.Billed),
		chunk:   uint32(cn),
		off:     uint32(off),
		klen:    uint32(len(key)),
		olen:    uint32(len(res.Output)),
		cold:    res.Cold,
	})
	w.index[key] = num
}

// popRec drops the oldest record: its key leaves the index if the index
// still names it, and its chunk goes if no newer record keeps bytes there.
func (w *idemWindow) popRec() {
	num := w.recs.frontNum()
	r := w.recs.front()
	cn := w.chunkNum(r.chunk)
	c := w.chunks.at(cn)
	kb := c.buf[r.off : r.off+r.klen]
	if n, ok := w.index[string(kb)]; ok && n == num {
		delete(w.index, string(kb))
	}
	if c.last == num {
		c.buf = nil
		if w.open && cn == w.openNum {
			w.open = false
		}
	}
	w.recs.pop()
	for w.chunks.len() > 0 && w.chunks.front().buf == nil {
		w.chunks.pop()
	}
}
