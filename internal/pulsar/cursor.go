package pulsar

import (
	"encoding/binary"
	"fmt"
	"math"
)

// cursorRecord is the durable per-subscription state in the coordination
// service: the contiguous acked prefix plus any out-of-order acks beyond it
// (Shared/KeyShared subscriptions ack out of order routinely). Acks is
// strictly increasing and every element is greater than AckedPrefix — an ack
// at the prefix would have advanced it.
type cursorRecord struct {
	Mode        SubMode
	AckedPrefix int64
	Acks        []int64
}

// Cursor record wire format (the value of /pulsar/subs/<topic>/<sub>):
//
//	byte 0    cursorVersion (0x01)
//	uvarint   Mode
//	uvarint   AckedPrefix
//	uvarint   len(Acks)
//	uvarint…  one per ack: its distance from the previous ack, the first
//	          from AckedPrefix — so every delta is at least 1
const cursorVersion = 0x01

// appendCursor appends c's encoding to buf. The ack path passes the
// subscription's own buffer cut to zero length, so a steady-state encode
// allocates nothing.
func appendCursor(buf []byte, c cursorRecord) []byte {
	buf = append(buf, cursorVersion)
	buf = binary.AppendUvarint(buf, uint64(c.Mode))
	buf = binary.AppendUvarint(buf, uint64(c.AckedPrefix))
	buf = binary.AppendUvarint(buf, uint64(len(c.Acks)))
	prev := c.AckedPrefix
	for _, seq := range c.Acks {
		buf = binary.AppendUvarint(buf, uint64(seq-prev))
		prev = seq
	}
	return buf
}

// decodeCursor parses a cursor record. It accepts exactly what appendCursor
// writes: an unknown version, short input, trailing bytes, a padded varint,
// an unknown mode or a non-increasing ack is an error, never a guess — a
// cursor read wrong silently redelivers or skips messages.
func decodeCursor(b []byte) (cursorRecord, error) {
	if len(b) == 0 {
		return cursorRecord{}, fmt.Errorf("pulsar: empty cursor record")
	}
	if b[0] != cursorVersion {
		return cursorRecord{}, fmt.Errorf("pulsar: unknown cursor codec version 0x%02x", b[0])
	}
	off := 1
	next := func(what string) (uint64, error) {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 || n != uvarintLen(v) {
			return 0, fmt.Errorf("pulsar: bad cursor %s at offset %d", what, off)
		}
		off += n
		return v, nil
	}
	mode, err := next("mode")
	if err != nil {
		return cursorRecord{}, err
	}
	if mode > uint64(KeyShared) {
		return cursorRecord{}, fmt.Errorf("pulsar: unknown cursor mode %d", mode)
	}
	prefix, err := next("prefix")
	if err != nil {
		return cursorRecord{}, err
	}
	count, err := next("ack count")
	if err != nil {
		return cursorRecord{}, err
	}
	// Every ack takes at least one byte, so a count beyond what is left is
	// short input — caught before it sizes an allocation.
	if prefix > math.MaxInt64 || count > uint64(len(b)-off) {
		return cursorRecord{}, fmt.Errorf("pulsar: cursor prefix %d / ack count %d out of range (%d bytes left)", prefix, count, len(b)-off)
	}
	c := cursorRecord{Mode: SubMode(mode), AckedPrefix: int64(prefix)}
	if count > 0 {
		c.Acks = make([]int64, count)
	}
	prev := prefix
	for i := range c.Acks {
		delta, err := next("ack")
		if err != nil {
			return cursorRecord{}, err
		}
		if delta == 0 || delta > math.MaxInt64-prev {
			return cursorRecord{}, fmt.Errorf("pulsar: cursor ack %d not increasing or out of range (delta %d)", i, delta)
		}
		prev += delta
		c.Acks[i] = int64(prev)
	}
	if off != len(b) {
		return cursorRecord{}, fmt.Errorf("pulsar: %d trailing bytes after cursor record", len(b)-off)
	}
	return c, nil
}
