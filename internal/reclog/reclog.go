// Package reclog is the one structure behind state that is written once,
// read by number and dropped oldest first: a numbered FIFO of pointer-free
// records, each owning one span of bytes in an append-only chunk arena.
// faas's dedup window and the gateway's finished async invocations are each
// a Log.
//
// A record's bytes are copied into 16 KiB chunks that the records pushed
// after it share; a span too large to share one gets a chunk of exactly its
// size. A chunk goes when the newest record keeping bytes in it pops, so
// what a log holds follows the records it holds: the collector sees one
// pointer-free block of records and a few byte chunks, not an object per
// record, and a record pins neither the request nor the buffer its bytes
// came from.
package reclog

// chunkSize is the size of the chunks records share; shared is the largest
// span that starts a fresh chunk when it does not fit the open one's free
// tail. A larger one gets a chunk of exactly its size instead, so a chunk
// given up for a new one wastes under 1/16 of itself.
const (
	chunkSize = 16 << 10
	shared    = chunkSize / 16
)

// span locates a record's bytes: n of them at off in chunk, an absolute
// chunk number, wrapping.
type span struct {
	chunk, off, n uint32
}

// slot is a record as the log stores it.
type slot[R any] struct {
	rec R
	span
}

// chunk is one arena chunk and the number of the newest record that keeps
// bytes in it: the chunk is dropped when that record pops.
type chunk struct {
	buf  []byte
	last uint64
}

// Log is a FIFO of records of type R, numbered from 0 in push order, each
// with its span of bytes. R should hold no pointer: the log's point is that
// its records are one block the collector never scans. The zero value is an
// empty log. It is not safe for concurrent use; callers hold their own lock.
// A span's bytes are never written after Push returns them filled, so a
// caller may hand them out past its lock and past the record's Pop.
type Log[R any] struct {
	recs   queue[slot[R]]
	chunks queue[chunk]
	// openNum is the chunk further spans are appended to while open; a
	// span too large to share a chunk gets one of its own after it.
	openNum uint64
	open    bool
}

// Len returns the number of records held.
func (l *Log[R]) Len() int { return l.recs.len() }

// First returns the number of the oldest record held; with none held, the
// number the next Push gets.
func (l *Log[R]) First() uint64 { return l.recs.frontNum() }

// At returns record n, which must be held.
func (l *Log[R]) At(n uint64) *R { return &l.recs.at(n).rec }

// Bytes returns record n's span with its capacity clipped, so an append by
// the caller cannot reach a neighbour; an empty span is nil.
func (l *Log[R]) Bytes(n uint64) []byte {
	s := l.recs.at(n).span
	if s.n == 0 {
		return nil
	}
	return l.chunks.at(l.chunkNum(s.chunk)).buf[s.off : s.off+s.n : s.off+s.n]
}

// chunkNum widens a span's wrapping chunk number to its place in chunks.
func (l *Log[R]) chunkNum(c uint32) uint64 {
	return l.chunks.frontNum() + uint64(c-uint32(l.chunks.frontNum()))
}

// Push appends rec with a span of size bytes and returns its number and the
// span, which the caller fills before its next call on the log.
func (l *Log[R]) Push(rec R, size int) (uint64, []byte) {
	cn := l.openNum
	if !l.open || cap(l.chunks.at(cn).buf)-len(l.chunks.at(cn).buf) < size {
		n := size
		if size <= shared {
			n = chunkSize
		}
		cn = l.chunks.next()
		l.chunks.push(chunk{buf: make([]byte, 0, n)})
		if size <= shared {
			// A small span gives up the open chunk's tail, under shared
			// bytes; a large one leaves that chunk open.
			l.open, l.openNum = true, cn
		}
	}
	num := l.recs.next()
	c := l.chunks.at(cn)
	off := len(c.buf)
	c.buf = c.buf[:off+size]
	c.last = num
	l.recs.push(slot[R]{rec: rec, span: span{chunk: uint32(cn), off: uint32(off), n: uint32(size)}})
	return num, c.buf[off : off+size : off+size]
}

// Pop drops the oldest record, and its chunk if no newer record keeps bytes
// there.
func (l *Log[R]) Pop() {
	num := l.recs.frontNum()
	cn := l.chunkNum(l.recs.front().chunk)
	if c := l.chunks.at(cn); c.last == num {
		c.buf = nil
		if l.open && cn == l.openNum {
			l.open = false
		}
	}
	l.recs.pop()
	for l.chunks.len() > 0 && l.chunks.front().buf == nil {
		l.chunks.pop()
	}
}

// queue is a FIFO whose items have absolute numbers: items[head:] are the
// items numbered first+head onward. The head is compacted away once it
// passes half the slice, so push and pop are O(1) amortised.
type queue[T any] struct {
	items []T
	head  int
	first uint64
}

func (q *queue[T]) len() int         { return len(q.items) - q.head }
func (q *queue[T]) next() uint64     { return q.first + uint64(len(q.items)) }
func (q *queue[T]) at(n uint64) *T   { return &q.items[n-q.first] }
func (q *queue[T]) front() *T        { return &q.items[q.head] }
func (q *queue[T]) frontNum() uint64 { return q.first + uint64(q.head) }

func (q *queue[T]) push(v T) { q.items = append(q.items, v) }

func (q *queue[T]) pop() {
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
