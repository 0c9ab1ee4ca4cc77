package pulsar

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ledgerRange is one ledger of a topic and the seq of its entry 0: ledger
// i's entry e is seq StartSeq+e, up to the next range's StartSeq.
type ledgerRange struct {
	ID       int64
	StartSeq int64
}

// Topic ledger list wire format (the value of /pulsar/topics/<t>/ledgers):
//
//	byte 0    ledgersVersion (0x01)
//	uvarint   number of ranges
//	uvarint…  per range, oldest first: ID, then StartSeq
//
// IDs and StartSeqs both strictly increase: ledger ids are handed out in
// order, and every ledger but the last (the open one) holds an entry. The
// first StartSeq is the topic's oldest retained seq, which is 0 until a
// ledger is deleted.
const ledgersVersion = 0x01

// appendLedgers appends rs's encoding to buf. The topic passes its own
// buffer cut to zero length, so a roll or trim encodes without allocating.
func appendLedgers(buf []byte, rs []ledgerRange) []byte {
	buf = append(buf, ledgersVersion)
	buf = binary.AppendUvarint(buf, uint64(len(rs)))
	for _, r := range rs {
		buf = binary.AppendUvarint(buf, uint64(r.ID))
		buf = binary.AppendUvarint(buf, uint64(r.StartSeq))
	}
	return buf
}

// decodeLedgers parses a topic ledger list. It accepts exactly what
// appendLedgers writes: an unknown version, short input, trailing bytes, a
// padded varint, a zero id, or an id or StartSeq that does not increase is an
// error — a list read wrong would name the wrong seqs for every message.
func decodeLedgers(b []byte) ([]ledgerRange, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("pulsar: empty ledger list")
	}
	if b[0] != ledgersVersion {
		return nil, fmt.Errorf("pulsar: unknown ledger list codec version 0x%02x", b[0])
	}
	off := 1
	next := func(what string) (int64, error) {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 || n != uvarintLen(v) || v > math.MaxInt64 {
			return 0, fmt.Errorf("pulsar: bad ledger list %s at offset %d", what, off)
		}
		off += n
		return int64(v), nil
	}
	count, err := next("count")
	if err != nil {
		return nil, err
	}
	// Every range takes at least two bytes: a count beyond that is short
	// input, caught before it sizes an allocation.
	if count > int64(len(b)-off)/2 {
		return nil, fmt.Errorf("pulsar: ledger list of %d ranges in %d bytes", count, len(b)-off)
	}
	var rs []ledgerRange
	if count > 0 {
		rs = make([]ledgerRange, count)
	}
	for i := range rs {
		if rs[i].ID, err = next("id"); err != nil {
			return nil, err
		}
		if rs[i].StartSeq, err = next("start seq"); err != nil {
			return nil, err
		}
		if rs[i].ID == 0 || i > 0 && (rs[i].ID <= rs[i-1].ID || rs[i].StartSeq <= rs[i-1].StartSeq) {
			return nil, fmt.Errorf("pulsar: ledger list range %d (ledger %d from seq %d) out of order", i, rs[i].ID, rs[i].StartSeq)
		}
	}
	if off != len(b) {
		return nil, fmt.Errorf("pulsar: %d trailing bytes after ledger list", len(b)-off)
	}
	return rs, nil
}
