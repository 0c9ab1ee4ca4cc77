package obs

import "encoding/binary"

// spanLog is the tracer's retained spans as delta-varint records (DESIGN.md
// §5). Every reader walks it from the front, so a record's trace and start
// are deltas from the previous record's, its span and parent from its own
// trace: about 12 bytes a span, where a spanRec is 56. Chunks are noscan,
// start at 1 KiB and double up to 64 KiB, and no record straddles two. The
// zero value is empty; callers hold the tracer's lock.
type spanLog struct {
	chunks [][]byte
	n      int     // records appended
	last   spanRec // the previous record, the base of the next one's deltas
}

const (
	spanChunkFirst     = 1 << 10
	spanChunkDoublings = 6 // chunks after the first double, then stay at 64 KiB
	// maxSpanRec is the longest record: five varint64s (trace, start, dur,
	// span, parent), the 33-bit attrs word and three uint32 string indexes.
	maxSpanRec = 5*binary.MaxVarintLen64 + 4*binary.MaxVarintLen32
)

// Append encodes r after the last record. Every int64 round-trips exactly:
// a delta is taken and added back with wrapping arithmetic, and a root's
// parent (0) is a flag in the attrs word rather than a delta.
func (l *spanLog) Append(r spanRec) {
	k := len(l.chunks) - 1
	if k < 0 || cap(l.chunks[k])-len(l.chunks[k]) < maxSpanRec {
		l.chunks = append(l.chunks, make([]byte, 0, spanChunkFirst<<min(len(l.chunks), spanChunkDoublings)))
		k++
	}
	word := uint64(r.attrs) << 1
	if r.parent != 0 {
		word |= 1
	}
	b := binary.AppendVarint(l.chunks[k], r.trace-l.last.trace)
	b = binary.AppendVarint(b, r.start-l.last.start)
	b = binary.AppendVarint(b, r.dur)
	b = binary.AppendVarint(b, r.span-r.trace)
	b = binary.AppendUvarint(b, word)
	if r.parent != 0 {
		b = binary.AppendVarint(b, r.parent-r.trace)
	}
	b = binary.AppendUvarint(b, uint64(r.name))
	b = binary.AppendUvarint(b, uint64(r.tenant))
	l.chunks[k] = binary.AppendUvarint(b, uint64(r.fn))
	l.last = r
	l.n++
}

// spanCursor decodes a spanLog front to back: for c := l.cursor(); c.next(); {}
type spanCursor struct {
	chunks [][]byte
	b      []byte // what is left of the chunk being read
	rec    spanRec
}

func (l *spanLog) cursor() spanCursor { return spanCursor{chunks: l.chunks} }

// next decodes the following record into rec, reporting false at the end.
func (c *spanCursor) next() bool {
	for len(c.b) == 0 {
		if len(c.chunks) == 0 {
			return false
		}
		c.b, c.chunks = c.chunks[0], c.chunks[1:]
	}
	r := &c.rec
	r.trace += c.varint()
	r.start += c.varint()
	r.dur = c.varint()
	r.span = r.trace + c.varint()
	word := c.uvarint()
	r.attrs, r.parent = uint32(word>>1), 0
	if word&1 != 0 {
		r.parent = r.trace + c.varint()
	}
	r.name, r.tenant, r.fn = uint32(c.uvarint()), uint32(c.uvarint()), uint32(c.uvarint())
	return true
}

func (c *spanCursor) varint() int64 {
	v, n := binary.Varint(c.b)
	c.b = c.b[n:]
	return v
}

func (c *spanCursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	c.b = c.b[n:]
	return v
}
