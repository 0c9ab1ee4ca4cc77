package obs

import (
	"encoding/binary"
)

// spanLog is the tracer's retained spans, one record per kept trace
// (DESIGN.md §5). What every trace of a kind shares — per span its name,
// labels, err and has-attrs bits, its Start-order position and its parent's
// — is said once, in a shape interned in the log's table, so a record is a
// shape id, its trace and root start as deltas from the previous record's,
// and per span only a start offset from the root's and a duration: about 5
// bytes a span, where a spanRec is 56. What a shape cannot say departs from
// it and is written in the record: the id and parent of a span in a trace
// whose ids are not dense, a parent outside the trace, an attr index. Every
// reader walks the log from the front. Chunks are noscan, start at 1 KiB and
// double up to 16 KiB, and no record straddles two: a trace too long for one
// record continues in the next. The zero value is empty; callers hold the
// tracer's lock.
type spanLog struct {
	chunks [][]byte
	n      int // spans appended
	// lastTrace and lastBase are the previous record's trace and base start,
	// the origin of the next record's deltas.
	lastTrace, lastBase int64
	// shapes are what every record of one kind shares: per span in
	// completion order, uvarints: name, tenant, fn, the shape flags, the
	// span's position unless shDeparts, and its parent's position if
	// shParentIn.
	shapes   []string
	shapeIdx map[string]uint32 // shape → index in shapes
}

// Shape flags, one word per span. A parent with neither parent flag is 0.
const (
	shErr       = 1 << iota // attrs carries recErr
	shAttrs                 // the record writes the attr index
	shAnchor                // the span starts at the record's base: no offset written
	shDeparts               // the record writes span - trace; the shape holds no position
	shParentIn              // parent = trace + a position the shape holds
	shParentOut             // the record writes parent - trace
)

const (
	spanChunkFirst     = 1 << 10
	spanChunkDoublings = 4 // chunks after the first double, then stay at 16 KiB
	// maxRecHead is the longest record header: the shape id and two varint64
	// deltas. maxRecSpan is the most one span adds: four varint64s (start
	// offset, dur, span, parent) and the attr index.
	maxRecHead = binary.MaxVarintLen32 + 2*binary.MaxVarintLen64
	maxRecSpan = 4*binary.MaxVarintLen64 + binary.MaxVarintLen32
)

// Append encodes the kept spans of one trace, all sharing recs[0].trace, in
// completion order after the last record. Every field round-trips exactly:
// deltas are taken and added back with wrapping arithmetic.
func (l *spanLog) Append(recs []spanRec) {
	if len(recs) == 0 {
		return
	}
	// The ids are dense when each is trace + its Start-order position, in
	// [0, len(recs)): then the shape holds positions and the record no ids.
	// Otherwise every span departs, so interleaved traces share a shape.
	bound := int64(len(recs))
	for i := range recs {
		if p := recs[i].span - recs[0].trace; p < 0 || p >= bound {
			bound = 0
			break
		}
	}
	for len(recs) > 0 {
		k, last := len(recs), len(l.chunks)-1
		room := 0
		if last >= 0 {
			room = cap(l.chunks[last]) - len(l.chunks[last])
		}
		if maxRecHead+k*maxRecSpan > room {
			if last < 0 || len(l.chunks[last]) > 0 {
				l.chunks = append(l.chunks, make([]byte, 0, spanChunkFirst<<min(len(l.chunks), spanChunkDoublings)))
				continue
			}
			k = (room - maxRecHead) / maxRecSpan // too long for a fresh chunk
		}
		l.record(recs[:k], bound)
		recs = recs[k:]
	}
}

// shapeFlags says how r is stored in a record of trace whose positions are
// [0, bound).
func shapeFlags(r *spanRec, trace, bound int64, anchor bool) uint64 {
	var f uint64
	if r.attrs&recErr != 0 {
		f |= shErr
	}
	if r.attrs&^recErr != 0 {
		f |= shAttrs
	}
	if anchor {
		f |= shAnchor
	}
	if p := r.span - trace; p < 0 || p >= bound {
		f |= shDeparts
	}
	if r.parent != 0 {
		if p := r.parent - trace; p < 0 || p >= bound {
			f |= shParentOut
		} else {
			f |= shParentIn
		}
	}
	return f
}

// record writes recs as one record into the last chunk, which has room for
// it. Its base start is the root's, or the first span's when the root is in
// another record.
func (l *spanLog) record(recs []spanRec, bound int64) {
	trace, anchor := recs[0].trace, 0
	for i := range recs {
		if recs[i].span == trace {
			anchor = i
			break
		}
	}
	base := recs[anchor].start

	var stack [128]byte // the shape of most records, so looking it up allocates nothing
	key := stack[:0]
	for i := range recs {
		r := &recs[i]
		f := shapeFlags(r, trace, bound, i == anchor)
		key = binary.AppendUvarint(key, uint64(r.name))
		key = binary.AppendUvarint(key, uint64(r.tenant))
		key = binary.AppendUvarint(key, uint64(r.fn))
		key = binary.AppendUvarint(key, f)
		if f&shDeparts == 0 {
			key = binary.AppendUvarint(key, uint64(r.span-trace))
		}
		if f&shParentIn != 0 {
			key = binary.AppendUvarint(key, uint64(r.parent-trace))
		}
	}
	id, ok := l.shapeIdx[string(key)]
	if !ok {
		if l.shapeIdx == nil { // a platform's traces come in a few kinds
			l.shapeIdx, l.shapes = map[string]uint32{}, make([]string, 0, 8)
		}
		id = uint32(len(l.shapes))
		sh := string(key)
		l.shapeIdx[sh] = id
		l.shapes = append(l.shapes, sh)
	}

	last := len(l.chunks) - 1
	b := binary.AppendUvarint(l.chunks[last], uint64(id))
	b = binary.AppendVarint(b, trace-l.lastTrace)
	b = binary.AppendVarint(b, base-l.lastBase)
	for i := range recs {
		r := &recs[i]
		f := shapeFlags(r, trace, bound, i == anchor)
		if f&shAnchor == 0 {
			b = binary.AppendVarint(b, r.start-base)
		}
		b = binary.AppendVarint(b, r.dur)
		if f&shDeparts != 0 {
			b = binary.AppendVarint(b, r.span-trace)
		}
		if f&shParentOut != 0 {
			b = binary.AppendVarint(b, r.parent-trace)
		}
		if f&shAttrs != 0 {
			b = binary.AppendUvarint(b, uint64(r.attrs&^recErr))
		}
	}
	l.chunks[last] = b
	l.lastTrace, l.lastBase = trace, base
	l.n += len(recs)
}

// spanCursor decodes a spanLog front to back, span by span:
//
//	for c := l.cursor(); c.next(); {}
type spanCursor struct {
	chunks [][]byte
	shapes []string
	b      []byte // what is left of the chunk being read
	sb     string // what is left of the current record's shape
	base   int64  // the current record's base start
	rec    spanRec
}

func (l *spanLog) cursor() spanCursor { return spanCursor{chunks: l.chunks, shapes: l.shapes} }

// next decodes the following span into rec, reporting false at the end.
func (c *spanCursor) next() bool {
	for !c.span() {
		if !c.record() {
			return false
		}
	}
	return true
}

// record moves to the next record, reporting false at the end; rec.trace is
// then its trace. The current record's spans must all have been decoded.
func (c *spanCursor) record() bool {
	for len(c.b) == 0 {
		if len(c.chunks) == 0 {
			return false
		}
		c.b, c.chunks = c.chunks[0], c.chunks[1:]
	}
	c.sb = c.shapes[c.uvarint()]
	c.rec.trace += c.varint()
	c.base += c.varint()
	return true
}

// span decodes the current record's next span into rec, reporting false
// when the record has none left.
func (c *spanCursor) span() bool {
	if len(c.sb) == 0 {
		return false
	}
	r := &c.rec
	r.name, r.tenant, r.fn = uint32(c.shape()), uint32(c.shape()), uint32(c.shape())
	f := c.shape()
	r.start = c.base
	if f&shAnchor == 0 {
		r.start += c.varint()
	}
	r.dur = c.varint()
	if f&shDeparts != 0 {
		r.span = r.trace + c.varint()
	} else {
		r.span = r.trace + int64(c.shape())
	}
	switch {
	case f&shParentIn != 0:
		r.parent = r.trace + int64(c.shape())
	case f&shParentOut != 0:
		r.parent = r.trace + c.varint()
	default:
		r.parent = 0
	}
	r.attrs = 0
	if f&shErr != 0 {
		r.attrs = recErr
	}
	if f&shAttrs != 0 {
		r.attrs |= uint32(c.uvarint())
	}
	return true
}

// shape reads the next uvarint of the current record's shape.
func (c *spanCursor) shape() uint64 {
	var v uint64
	for shift := 0; ; shift += 7 {
		b := c.sb[0]
		c.sb = c.sb[1:]
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
	}
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
